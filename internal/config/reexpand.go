package config

import (
	"sort"

	"cloudless/internal/hcl"
)

// varReaders is which parts of a module read each of its variables, for a
// re-expansion that redoes only the readers of the variables that changed.
type varReaders struct {
	// decls and outputs map a variable to the resources, data sources and
	// outputs whose expressions name var.<variable>.
	decls   map[string][]*Resource
	outputs map[string][]string
	// everything lists the variables whose change can reach any
	// declaration: those a local, a provider block or a module argument
	// reads.
	everything map[string]bool
	// dynamic reports an expression that reaches var or local without a
	// static attribute name: it reads every variable.
	dynamic bool
}

// dirtySet is what a re-expansion expands again: root declarations and root
// outputs.
type dirtySet struct {
	decls map[*Resource]bool
	// order lists decls as a full expansion meets them: data sources, then
	// resources, each by key.
	order   []*Resource
	outputs map[string]bool
}

// readers returns the module's variable readers, indexed on first use: the
// AST is immutable after Load.
func (m *Module) readers() *varReaders {
	m.readersOnce.Do(func() {
		vr := varReaders{
			decls:      map[string][]*Resource{},
			outputs:    map[string][]string{},
			everything: map[string]bool{},
		}
		scan := func(e hcl.Expression, note func(name string)) {
			for _, tr := range e.Variables() {
				ref, ok := staticScopeRef(tr)
				switch {
				case !ok:
					vr.dynamic = true
				case ref.root == "var":
					note(ref.name)
				}
			}
		}
		reachesAll := func(name string) { vr.everything[name] = true }
		for _, l := range m.Locals {
			scan(l.Expr, reachesAll)
		}
		for _, p := range m.Providers {
			for _, e := range p.Attrs {
				scan(e, reachesAll)
			}
		}
		for _, c := range m.Calls {
			for _, e := range c.Args {
				scan(e, reachesAll)
			}
		}
		for name, o := range m.Outputs {
			seen := map[string]bool{}
			scan(o.Expr, func(v string) {
				if !seen[v] {
					seen[v] = true
					vr.outputs[v] = append(vr.outputs[v], name)
				}
			})
		}
		for _, decls := range []map[string]*Resource{m.Data, m.Resources} {
			for _, r := range decls {
				ast := r.ast()
				vr.dynamic = vr.dynamic || ast.dynamic
				for _, ref := range ast.refs {
					if ref.root == "var" {
						vr.decls[ref.name] = append(vr.decls[ref.name], r)
					}
				}
			}
		}
		m.readersMemo = vr
	})
	return &m.readersMemo
}

// dirty returns the declarations and outputs that read the changed
// variables, or nil when a changed variable can reach any declaration.
func (vr *varReaders) dirty(changed []string) *dirtySet {
	if vr.dynamic {
		return nil
	}
	d := &dirtySet{decls: map[*Resource]bool{}, outputs: map[string]bool{}}
	for _, name := range changed {
		if vr.everything[name] {
			return nil
		}
		for _, r := range vr.decls[name] {
			if !d.decls[r] {
				d.decls[r] = true
				d.order = append(d.order, r)
			}
		}
		for _, o := range vr.outputs[name] {
			d.outputs[o] = true
		}
	}
	sort.Slice(d.order, func(i, j int) bool {
		a, b := d.order[i], d.order[j]
		if a.Mode != b.Mode {
			return a.Mode == DataMode
		}
		return a.Key() < b.Key()
	})
	return d
}
