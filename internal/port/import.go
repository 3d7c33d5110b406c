// Package port implements §3.1: bringing existing, non-IaC infrastructure
// under IaC management, and generating IaC programs in the first place.
//
// The importer reads the live cloud and produces a CCL program plus the
// matching state. Unlike static-template porters (aztfy, terraformer), the
// output is then run through a program optimizer whose objective is code
// quality: computed and default attributes are pruned, hard-coded resource
// IDs become references, homogeneous fleets compact into count/for_each
// forms, and repeated structures are extracted into modules. The package
// also quantifies "quality" (the paper's open research question) with
// concrete metrics, and includes a deterministic template-based synthesizer
// standing in for LLM-based generation.
package port

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/hcl"
	"cloudless/internal/schema"
	"cloudless/internal/state"
)

// ImportOptions control an import.
type ImportOptions struct {
	// Providers restricts which providers to scan (default: all).
	Providers []string
	// Regions restricts which regions to scan (default: all of each
	// provider's regions).
	Regions []string
	// Optimize runs the refactoring optimizer on the generated program.
	Optimize bool
	// ExtractModules enables repeated-structure module extraction
	// (implies Optimize).
	ExtractModules bool
}

// ImportResult is the outcome of an import.
type ImportResult struct {
	// Files maps filename to generated CCL source ("main.ccl" plus one
	// file per extracted module under "modules/<name>/main.ccl").
	Files map[string]string
	// State maps the generated addresses to the live resources.
	State *state.State
	// APICalls spent scanning.
	APICalls int
	// Metrics quantify the generated program's quality.
	Metrics QualityMetrics
}

// importedResource is the working representation during porting.
type importedResource struct {
	res  *cloud.Resource
	addr string // generated "type.name"
	name string
	// attrs not yet pruned.
	attrs map[string]eval.Value
}

// Import scans the cloud and generates a CCL program plus state.
func Import(ctx context.Context, cl cloud.Interface, opts ImportOptions) (*ImportResult, error) {
	provs := opts.Providers
	if len(provs) == 0 {
		provs = schema.Providers()
	}
	var imported []*importedResource
	apiCalls := 0

	for _, provName := range provs {
		prov, ok := schema.LookupProvider(provName)
		if !ok {
			return nil, fmt.Errorf("port: unknown provider %q", provName)
		}
		regions := opts.Regions
		if len(regions) == 0 {
			regions = prov.Regions
		}
		types := make([]string, 0, len(prov.Resources))
		for typ, rs := range prov.Resources {
			if !rs.DataSource {
				types = append(types, typ)
			}
		}
		sort.Strings(types)
		for _, typ := range types {
			for _, region := range regions {
				list, err := cl.List(ctx, typ, region)
				apiCalls++
				if err != nil {
					return nil, fmt.Errorf("port: list %s in %s: %w", typ, region, err)
				}
				for _, res := range list {
					imported = append(imported, &importedResource{res: res, attrs: res.Attrs})
				}
			}
		}
	}

	assignNames(imported)

	result := &ImportResult{
		Files:    map[string]string{},
		State:    state.New(),
		APICalls: apiCalls,
	}

	idToAddr := map[string]string{}
	for _, ir := range imported {
		idToAddr[ir.res.ID] = ir.addr
	}

	// Build one block per resource: prune computed/default attributes and
	// link literal IDs into references.
	blocks := make([]*resBlock, 0, len(imported))
	for _, ir := range imported {
		blocks = append(blocks, buildBlock(ir, idToAddr))
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].addr < blocks[j].addr })

	var file *hcl.File
	var moduleFiles map[string]string
	renames := map[string]string{}
	switch {
	case opts.ExtractModules:
		file, moduleFiles, renames = renderWithModules(blocks)
	case opts.Optimize:
		file, renames = renderOptimized(blocks)
	default:
		file = renderNaive(blocks)
	}

	// State entries, with addresses rewritten to wherever the optimizer
	// moved each resource (count index or module instance), so the
	// generated program + state pair is a planning fixpoint.
	rename := func(addr string) string {
		if na, ok := renames[addr]; ok {
			return na
		}
		return addr
	}
	for _, ir := range imported {
		var deps []string
		for _, dep := range referencedAddrs(ir, idToAddr) {
			deps = append(deps, stripIndex(rename(dep)))
		}
		sort.Strings(deps)
		result.State.Set(&state.ResourceState{
			Addr: rename(ir.addr), Type: ir.res.Type, ID: ir.res.ID, Region: ir.res.Region,
			Attrs: ir.res.Attrs, Generation: ir.res.Generation, Dependencies: deps,
			CreatedAt: ir.res.CreatedAt, UpdatedAt: ir.res.UpdatedAt,
		})
	}
	result.Files["main.ccl"] = hcl.Format(file)
	for name, src := range moduleFiles {
		result.Files[name] = src
	}
	result.Metrics = MeasureFiles(result.Files, len(imported))
	return result, nil
}

// assignNames gives each imported resource a readable, unique block name
// derived from its name attribute or cloud ID.
func assignNames(imported []*importedResource) {
	sort.Slice(imported, func(i, j int) bool { return imported[i].res.ID < imported[j].res.ID })
	used := map[string]bool{}
	for _, ir := range imported {
		base := ""
		if v, ok := ir.res.Attrs["name"]; ok && v.Kind() == eval.KindString {
			base = sanitizeName(v.AsString())
		}
		if base == "" {
			base = sanitizeName(ir.res.ID)
		}
		name := base
		for i := 2; used[ir.res.Type+"."+name]; i++ {
			name = fmt.Sprintf("%s_%d", base, i)
		}
		used[ir.res.Type+"."+name] = true
		ir.name = name
		ir.addr = ir.res.Type + "." + name
	}
}

// stripIndex reduces an instance address to its resource-level address.
func stripIndex(addr string) string {
	if i := strings.IndexByte(addr, '['); i >= 0 {
		return addr[:i]
	}
	return addr
}

var nonIdent = regexp.MustCompile(`[^a-zA-Z0-9_]+`)

func sanitizeName(s string) string {
	out := nonIdent.ReplaceAllString(s, "_")
	out = strings.Trim(out, "_")
	if out == "" {
		return "r"
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = "r_" + out
	}
	return strings.ToLower(out)
}

// resBlock is a generated resource block before rendering.
type resBlock struct {
	typ   string
	name  string
	addr  string
	attrs map[string]hcl.Expression // pruned, linked
	order []string
}

// buildBlock prunes and links one resource.
func buildBlock(ir *importedResource, idToAddr map[string]string) *resBlock {
	rs, _ := schema.LookupResource(ir.res.Type)
	b := &resBlock{typ: ir.res.Type, name: ir.name, addr: ir.addr,
		attrs: map[string]hcl.Expression{}}
	names := make([]string, 0, len(ir.attrs))
	for n := range ir.attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, attr := range names {
		v := ir.attrs[attr]
		var as *schema.AttrSchema
		if rs != nil {
			as = rs.Attr(attr)
		}
		// Prune: computed attributes are reconstructed by the cloud, and
		// values equal to schema defaults are noise (§3.1: "many of its
		// cloud-level attributes could be removed when porting").
		if as != nil {
			if as.Computed {
				continue
			}
			if as.HasDefault && as.Default.Equal(v) {
				continue
			}
		}
		if v.IsNull() {
			continue
		}
		b.attrs[attr] = linkValue(v, idToAddr)
		b.order = append(b.order, attr)
	}
	return b
}

// linkValue converts literal cloud IDs into references to the imported
// resources that own them.
func linkValue(v eval.Value, idToAddr map[string]string) hcl.Expression {
	switch v.Kind() {
	case eval.KindString:
		if addr, ok := idToAddr[v.AsString()]; ok {
			parts := strings.SplitN(addr, ".", 2)
			return hcl.NewTraversalExpr(parts[0], parts[1], "id")
		}
		return hcl.NewLiteral(v.AsString())
	case eval.KindList:
		items := make([]hcl.Expression, 0, len(v.AsList()))
		for _, e := range v.AsList() {
			items = append(items, linkValue(e, idToAddr))
		}
		return hcl.NewTuple(items...)
	case eval.KindObject:
		obj := &hcl.ObjectExpr{}
		keys := make([]string, 0, len(v.AsObject()))
		for k := range v.AsObject() {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			obj.Items = append(obj.Items, hcl.ObjectItem{
				Key:   hcl.NewLiteral(k),
				Value: linkValue(v.AsObject()[k], idToAddr),
			})
		}
		return obj
	case eval.KindBool:
		return hcl.NewLiteral(v.AsBool())
	case eval.KindNumber:
		return hcl.NewLiteral(v.AsNumber())
	default:
		return hcl.NewLiteral(nil)
	}
}

// referencedAddrs lists the imported addresses a resource references.
func referencedAddrs(ir *importedResource, idToAddr map[string]string) []string {
	rs, ok := schema.LookupResource(ir.res.Type)
	if !ok {
		return nil
	}
	set := map[string]bool{}
	for attr, a := range rs.Attrs {
		if a.Semantic.Kind != schema.SemResourceRef {
			continue
		}
		v, exists := ir.res.Attrs[attr]
		if !exists {
			continue
		}
		for _, id := range stringsIn(v) {
			if addr, ok := idToAddr[id]; ok && addr != ir.addr {
				set[addr] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func stringsIn(v eval.Value) []string {
	switch v.Kind() {
	case eval.KindString:
		return []string{v.AsString()}
	case eval.KindList:
		var out []string
		for _, e := range v.AsList() {
			if e.Kind() == eval.KindString {
				out = append(out, e.AsString())
			}
		}
		return out
	default:
		return nil
	}
}

// renderNaive emits one block per resource, aztfy-style (but already pruned
// and linked).
func renderNaive(blocks []*resBlock) *hcl.File {
	f := &hcl.File{Body: &hcl.Body{}}
	for _, b := range blocks {
		blk := hcl.NewBlock("resource", b.typ, b.name)
		for _, attr := range b.order {
			blk.Body.SetAttr(attr, b.attrs[attr])
		}
		f.Body.Blocks = append(f.Body.Blocks, blk)
	}
	return f
}
