// Package config loads CCL source into configuration declarations and
// expands them into concrete resource instances: it evaluates variables and
// locals, applies count/for_each multiplicity, instantiates modules, and
// extracts the cross-resource references that later become the dependency
// graph. This is the front half of the Figure 1 pipeline — everything that
// happens before planning.
package config

import (
	"fmt"
	"strings"
	"sync"

	"cloudless/internal/eval"
	"cloudless/internal/hcl"
	"cloudless/internal/schema"
)

// Mode distinguishes managed resources from read-only data sources.
type Mode int

// Resource modes.
const (
	ManagedMode Mode = iota
	DataMode
)

// Variable is a "variable" block declaration.
type Variable struct {
	Name        string
	Type        string // "string", "number", "bool", "list", "map" or ""
	Default     eval.Value
	HasDefault  bool
	Description string
	DeclRange   hcl.Range
}

// Local is one entry of a "locals" block.
type Local struct {
	Name      string
	Expr      hcl.Expression
	DeclRange hcl.Range
}

// Output is an "output" block declaration.
type Output struct {
	Name      string
	Expr      hcl.Expression
	Sensitive bool
	DeclRange hcl.Range
}

// ProviderCfg is a "provider" block: per-provider settings such as region.
type ProviderCfg struct {
	Name      string
	Attrs     map[string]hcl.Expression
	DeclRange hcl.Range
}

// Resource is a "resource" or "data" block declaration.
type Resource struct {
	Mode      Mode
	Type      string
	Name      string
	Attrs     map[string]hcl.Expression
	AttrOrder []string // source order, for stable diagnostics
	Count     hcl.Expression
	ForEach   hcl.Expression
	DependsOn []hcl.Traversal
	DeclRange hcl.Range
	AttrRange map[string]hcl.Range

	// astMemo is the AST's share of the declaration's hash, computed on
	// first use (see ast in fingerprint.go).
	astOnce sync.Once
	astMemo declAST
}

// Key returns "type.name".
func (r *Resource) Key() string { return r.Type + "." + r.Name }

// ModuleCall is a "module" block: an instantiation of a child configuration.
type ModuleCall struct {
	Name      string
	Source    string
	Args      map[string]hcl.Expression
	DeclRange hcl.Range
}

// Module is a parsed configuration: the root module or a child.
type Module struct {
	Variables map[string]*Variable
	Locals    map[string]*Local
	Resources map[string]*Resource // key "type.name", managed mode
	Data      map[string]*Resource // key "type.name", data mode
	Outputs   map[string]*Output
	Providers map[string]*ProviderCfg
	Calls     map[string]*ModuleCall

	// readersMemo indexes which declarations read each variable, built on
	// first use (see readers in reexpand.go).
	readersOnce sync.Once
	readersMemo varReaders
}

func newModule() *Module {
	return &Module{
		Variables: map[string]*Variable{},
		Locals:    map[string]*Local{},
		Resources: map[string]*Resource{},
		Data:      map[string]*Resource{},
		Outputs:   map[string]*Output{},
		Providers: map[string]*ProviderCfg{},
		Calls:     map[string]*ModuleCall{},
	}
}

// decodeFiles merges parsed files into a Module.
func decodeFiles(files []*hcl.File) (*Module, hcl.Diagnostics) {
	m := newModule()
	var diags hcl.Diagnostics
	for _, f := range files {
		diags = diags.Extend(m.decodeBody(f.Body))
	}
	return m, diags
}

func (m *Module) decodeBody(body *hcl.Body) hcl.Diagnostics {
	var diags hcl.Diagnostics
	for _, attr := range body.Attributes {
		diags = diags.Append(hcl.Errorf(attr.Rng,
			"unexpected top-level attribute %q; only blocks are allowed at the top level", attr.Name))
	}
	for _, blk := range body.Blocks {
		switch blk.Type {
		case "variable":
			diags = diags.Extend(m.decodeVariable(blk))
		case "locals":
			diags = diags.Extend(m.decodeLocals(blk))
		case "resource":
			diags = diags.Extend(m.decodeResource(blk, ManagedMode))
		case "data":
			diags = diags.Extend(m.decodeResource(blk, DataMode))
		case "output":
			diags = diags.Extend(m.decodeOutput(blk))
		case "provider":
			diags = diags.Extend(m.decodeProvider(blk))
		case "module":
			diags = diags.Extend(m.decodeModuleCall(blk))
		default:
			diags = diags.Append(hcl.Errorf(blk.TypeRange,
				"unsupported block type %q; expected variable, locals, resource, data, output, provider, or module", blk.Type))
		}
	}
	return diags
}

func (m *Module) decodeVariable(blk *hcl.Block) hcl.Diagnostics {
	var diags hcl.Diagnostics
	if len(blk.Labels) != 1 {
		return diags.Append(hcl.Errorf(blk.DefRange(), "variable blocks need exactly one label (the variable name)"))
	}
	v := &Variable{Name: blk.Labels[0], DeclRange: blk.DefRange()}
	if dup, exists := m.Variables[v.Name]; exists {
		return diags.Append(hcl.Errorf(blk.DefRange(),
			"duplicate variable %q; previously declared at %s", v.Name, dup.DeclRange))
	}
	for _, attr := range blk.Body.Attributes {
		switch attr.Name {
		case "type":
			if lit, ok := attr.Expr.(*hcl.LiteralExpr); ok {
				if s, ok := lit.Val.(string); ok {
					v.Type = s
					continue
				}
			}
			if tr, ok := attr.Expr.(*hcl.ScopeTraversalExpr); ok {
				v.Type = tr.Traversal.RootName() // bare keyword style: type = string
				continue
			}
			diags = diags.Append(hcl.Errorf(attr.Rng, "variable type must be a type keyword or string"))
		case "default":
			val, d := eval.Evaluate(attr.Expr, eval.NewContext())
			diags = diags.Extend(d)
			if !d.HasErrors() {
				v.Default = val
				v.HasDefault = true
			}
		case "description":
			if lit, ok := attr.Expr.(*hcl.LiteralExpr); ok {
				if s, ok := lit.Val.(string); ok {
					v.Description = s
				}
			}
		default:
			diags = diags.Append(hcl.Errorf(attr.NameRange,
				"unsupported argument %q in variable block", attr.Name))
		}
	}
	m.Variables[v.Name] = v
	return diags
}

func (m *Module) decodeLocals(blk *hcl.Block) hcl.Diagnostics {
	var diags hcl.Diagnostics
	if len(blk.Labels) != 0 {
		diags = diags.Append(hcl.Errorf(blk.DefRange(), "locals blocks take no labels"))
	}
	for _, attr := range blk.Body.Attributes {
		if dup, exists := m.Locals[attr.Name]; exists {
			diags = diags.Append(hcl.Errorf(attr.NameRange,
				"duplicate local value %q; previously declared at %s", attr.Name, dup.DeclRange))
			continue
		}
		m.Locals[attr.Name] = &Local{Name: attr.Name, Expr: attr.Expr, DeclRange: attr.NameRange}
	}
	return diags
}

func (m *Module) decodeResource(blk *hcl.Block, mode Mode) hcl.Diagnostics {
	var diags hcl.Diagnostics
	kind := "resource"
	if mode == DataMode {
		kind = "data"
	}
	if len(blk.Labels) != 2 {
		return diags.Append(hcl.Errorf(blk.DefRange(),
			"%s blocks need exactly two labels: %s \"<type>\" \"<name>\"", kind, kind))
	}
	r := &Resource{
		Mode: mode, Type: blk.Labels[0], Name: blk.Labels[1],
		Attrs:     map[string]hcl.Expression{},
		AttrRange: map[string]hcl.Range{},
		DeclRange: blk.DefRange(),
	}
	target := m.Resources
	if mode == DataMode {
		target = m.Data
	}
	if dup, exists := target[r.Key()]; exists {
		return diags.Append(hcl.Errorf(blk.DefRange(),
			"duplicate %s %q; previously declared at %s", kind, r.Key(), dup.DeclRange))
	}
	if _, ok := schema.LookupResource(r.Type); !ok {
		diags = diags.Append(hcl.Errorf(blk.LabelRanges[0],
			"unknown resource type %q; is the provider registered?", r.Type))
	}
	diags = diags.Extend(r.decodeBody(blk.Body))
	target[r.Key()] = r
	return diags
}

func (r *Resource) decodeBody(body *hcl.Body) hcl.Diagnostics {
	var diags hcl.Diagnostics
	for _, attr := range body.Attributes {
		switch attr.Name {
		case "count":
			r.Count = attr.Expr
		case "for_each":
			r.ForEach = attr.Expr
		case "depends_on":
			tup, ok := attr.Expr.(*hcl.TupleExpr)
			if !ok {
				diags = diags.Append(hcl.Errorf(attr.Rng, "depends_on must be a list of resource references"))
				continue
			}
			for _, item := range tup.Items {
				ref, ok := item.(*hcl.ScopeTraversalExpr)
				if !ok {
					diags = diags.Append(hcl.Errorf(item.Range(), "depends_on entries must be bare resource references"))
					continue
				}
				r.DependsOn = append(r.DependsOn, ref.Traversal)
			}
		default:
			r.setAttr(attr.Name, attr.Expr, attr.Rng)
		}
	}
	if r.Count != nil && r.ForEach != nil {
		diags = diags.Append(hcl.Errorf(r.DeclRange, `"count" and "for_each" cannot both be set`))
	}
	// Nested blocks become object-valued attributes: tags { a = 1 } is
	// sugar for tags = { a = 1 }.
	for _, sub := range body.Blocks {
		items := make([]hcl.ObjectItem, 0, len(sub.Body.Attributes))
		for _, a := range sub.Body.Attributes {
			items = append(items, hcl.ObjectItem{
				Key:   &hcl.LiteralExpr{Val: a.Name, Rng: a.NameRange},
				Value: a.Expr,
			})
		}
		if len(sub.Body.Blocks) > 0 {
			diags = diags.Append(hcl.Errorf(sub.DefRange(), "nested blocks may not themselves contain blocks"))
		}
		r.setAttr(sub.Type, &hcl.ObjectExpr{Items: items, Rng: sub.Rng}, sub.Rng)
	}
	return diags
}

func (r *Resource) setAttr(name string, expr hcl.Expression, rng hcl.Range) {
	if _, exists := r.Attrs[name]; !exists {
		r.AttrOrder = append(r.AttrOrder, name)
	}
	r.Attrs[name] = expr
	r.AttrRange[name] = rng
}

func (m *Module) decodeOutput(blk *hcl.Block) hcl.Diagnostics {
	var diags hcl.Diagnostics
	if len(blk.Labels) != 1 {
		return diags.Append(hcl.Errorf(blk.DefRange(), "output blocks need exactly one label"))
	}
	o := &Output{Name: blk.Labels[0], DeclRange: blk.DefRange()}
	valAttr := blk.Body.Attribute("value")
	if valAttr == nil {
		return diags.Append(hcl.Errorf(blk.DefRange(), "output %q is missing its value attribute", o.Name))
	}
	o.Expr = valAttr.Expr
	if s := blk.Body.Attribute("sensitive"); s != nil {
		if lit, ok := s.Expr.(*hcl.LiteralExpr); ok {
			if b, ok := lit.Val.(bool); ok {
				o.Sensitive = b
			}
		}
	}
	m.Outputs[o.Name] = o
	return diags
}

func (m *Module) decodeProvider(blk *hcl.Block) hcl.Diagnostics {
	var diags hcl.Diagnostics
	if len(blk.Labels) != 1 {
		return diags.Append(hcl.Errorf(blk.DefRange(), "provider blocks need exactly one label"))
	}
	p := &ProviderCfg{Name: blk.Labels[0], Attrs: map[string]hcl.Expression{}, DeclRange: blk.DefRange()}
	if _, ok := schema.LookupProvider(p.Name); !ok {
		diags = diags.Append(hcl.Errorf(blk.LabelRanges[0],
			"unknown provider %q; registered providers: %s", p.Name, strings.Join(schema.Providers(), ", ")))
	}
	for _, attr := range blk.Body.Attributes {
		p.Attrs[attr.Name] = attr.Expr
	}
	m.Providers[p.Name] = p
	return diags
}

func (m *Module) decodeModuleCall(blk *hcl.Block) hcl.Diagnostics {
	var diags hcl.Diagnostics
	if len(blk.Labels) != 1 {
		return diags.Append(hcl.Errorf(blk.DefRange(), "module blocks need exactly one label"))
	}
	call := &ModuleCall{Name: blk.Labels[0], Args: map[string]hcl.Expression{}, DeclRange: blk.DefRange()}
	if dup, exists := m.Calls[call.Name]; exists {
		return diags.Append(hcl.Errorf(blk.DefRange(),
			"duplicate module %q; previously declared at %s", call.Name, dup.DeclRange))
	}
	for _, attr := range blk.Body.Attributes {
		if attr.Name == "source" {
			lit, ok := attr.Expr.(*hcl.LiteralExpr)
			if !ok {
				diags = diags.Append(hcl.Errorf(attr.Rng, "module source must be a literal string"))
				continue
			}
			s, ok := lit.Val.(string)
			if !ok {
				diags = diags.Append(hcl.Errorf(attr.Rng, "module source must be a string"))
				continue
			}
			call.Source = s
			continue
		}
		call.Args[attr.Name] = attr.Expr
	}
	if call.Source == "" {
		diags = diags.Append(hcl.Errorf(blk.DefRange(), "module %q is missing its source attribute", call.Name))
	}
	m.Calls[call.Name] = call
	return diags
}

// typeCheckValue verifies a variable value against a declared type keyword.
func typeCheckValue(v eval.Value, typ string) error {
	if typ == "" || v.IsUnknown() || v.IsNull() {
		return nil
	}
	want := map[string]eval.Kind{
		"string": eval.KindString,
		"number": eval.KindNumber,
		"bool":   eval.KindBool,
		"list":   eval.KindList,
		"map":    eval.KindObject,
		"object": eval.KindObject,
	}
	k, ok := want[typ]
	if !ok {
		return fmt.Errorf("unknown type keyword %q", typ)
	}
	if v.Kind() != k {
		return fmt.Errorf("expected %s, got %s", typ, v.Kind())
	}
	return nil
}
