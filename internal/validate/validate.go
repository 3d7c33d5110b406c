// Package validate implements compile-time validation of CCL configurations:
// structural schema checks, the semantic type system of §3.2 (references are
// typed by what they refer to, not just "string"), and the knowledge-base
// cloud-level constraint rules — so that the deploy-time surprises the paper
// describes (region mismatches, co-requirement violations, overlapping
// peered address spaces) are caught before a single API call is made.
package validate

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/hcl"
	"cloudless/internal/schema"
)

// Finding is one validation result.
type Finding struct {
	// RuleID identifies the check: a knowledge-base rule ID or a built-in
	// check name like "schema/required".
	RuleID   string
	Severity hcl.Severity
	// Addr is the instance the finding is about.
	Addr string
	// Attr is the offending attribute, when attributable.
	Attr    string
	Summary string
	Detail  string
	Range   hcl.Range
}

// Error renders the finding like a compiler diagnostic.
func (f Finding) Error() string {
	return fmt.Sprintf("%s: %s: [%s] %s", f.Range, f.Severity, f.RuleID, f.Summary)
}

// Result is a set of findings.
type Result struct {
	Findings []Finding
}

// HasErrors reports whether any finding is error-severity.
func (r *Result) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == hcl.DiagError {
			return true
		}
	}
	return false
}

// Errors returns only error-severity findings.
func (r *Result) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == hcl.DiagError {
			out = append(out, f)
		}
	}
	return out
}

// Diagnostics converts findings to hcl diagnostics.
func (r *Result) Diagnostics() hcl.Diagnostics {
	var out hcl.Diagnostics
	for _, f := range r.Findings {
		out = append(out, &hcl.Diagnostic{
			Severity: f.Severity,
			Summary:  fmt.Sprintf("[%s] %s", f.RuleID, f.Summary),
			Detail:   f.Detail,
			Subject:  f.Range,
		})
	}
	return out
}

// validator carries shared lookup tables across checks.
type validator struct {
	ex       *config.Expansion
	kb       *schema.KnowledgeBase
	findings []Finding
	// static attribute values per instance (unknown where not statically
	// evaluable).
	static map[string]map[string]eval.Value
}

// Validate checks an expanded configuration against the schema registry and
// a knowledge base. It never contacts a cloud.
func Validate(ex *config.Expansion, kb *schema.KnowledgeBase) *Result {
	if kb == nil {
		kb = schema.DefaultKB()
	}
	v := &validator{ex: ex, kb: kb, static: map[string]map[string]eval.Value{}}
	for _, inst := range ex.Instances {
		v.static[inst.Addr] = v.staticAttrs(inst)
	}
	for _, inst := range ex.Instances {
		if inst.Mode == config.DataMode {
			continue
		}
		v.checkSchema(inst)
		v.checkSemanticRefs(inst)
		v.checkValueSemantics(inst)
		v.checkRules(inst)
	}
	v.checkUniqueNames()
	sort.SliceStable(v.findings, func(i, j int) bool {
		if v.findings[i].Addr != v.findings[j].Addr {
			return v.findings[i].Addr < v.findings[j].Addr
		}
		return v.findings[i].RuleID < v.findings[j].RuleID
	})
	return &Result{Findings: v.findings}
}

func (v *validator) add(f Finding) { v.findings = append(v.findings, f) }

// staticAttrs evaluates attributes as far as possible without a cloud:
// references to other resources become unknown instead of erroring.
func (v *validator) staticAttrs(inst *config.Instance) map[string]eval.Value {
	out := map[string]eval.Value{}
	rs, ok := schema.LookupResource(inst.Type)
	if ok {
		for name, a := range rs.Attrs {
			if a.HasDefault {
				out[name] = a.Default
			}
		}
	}
	for name, expr := range inst.Attrs {
		val, diags := eval.Evaluate(expr, scopeWithUnknownResources(inst, expr))
		if diags.HasErrors() {
			out[name] = eval.Unknown
			continue
		}
		out[name] = val
	}
	return out
}

// scopeWithUnknownResources builds a scope where every resource-ish root the
// expression mentions resolves to Unknown, so static evaluation never fails
// on cross-resource references.
func scopeWithUnknownResources(inst *config.Instance, expr hcl.Expression) *eval.Context {
	scope := inst.Scope.Child()
	for _, tr := range expr.Variables() {
		root := tr.RootName()
		if _, exists := scope.Lookup(root); exists {
			continue
		}
		scope.Variables[root] = eval.Unknown
	}
	return scope
}

// --- structural schema checks ---------------------------------------------

func (v *validator) checkSchema(inst *config.Instance) {
	rs, ok := schema.LookupResource(inst.Type)
	if !ok {
		v.add(Finding{
			RuleID: "schema/unknown-type", Severity: hcl.DiagError,
			Addr: inst.Addr, Range: inst.DeclRange,
			Summary: fmt.Sprintf("unknown resource type %q", inst.Type),
		})
		return
	}
	for _, name := range rs.RequiredAttrs() {
		if _, set := inst.Attrs[name]; !set {
			v.add(Finding{
				RuleID: "schema/required", Severity: hcl.DiagError,
				Addr: inst.Addr, Attr: name, Range: inst.DeclRange,
				Summary: fmt.Sprintf("required attribute %q is not set", name),
				Detail:  fmt.Sprintf("%s requires: %s", inst.Type, strings.Join(rs.RequiredAttrs(), ", ")),
			})
		}
	}
	statics := v.static[inst.Addr]
	for name := range inst.Attrs {
		a := rs.Attr(name)
		rng := inst.AttrRange[name]
		if a == nil {
			v.add(Finding{
				RuleID: "schema/unknown-attribute", Severity: hcl.DiagError,
				Addr: inst.Addr, Attr: name, Range: rng,
				Summary: fmt.Sprintf("%s has no attribute %q", inst.Type, name),
			})
			continue
		}
		if a.Computed {
			v.add(Finding{
				RuleID: "schema/computed-readonly", Severity: hcl.DiagError,
				Addr: inst.Addr, Attr: name, Range: rng,
				Summary: fmt.Sprintf("attribute %q is assigned by the cloud and cannot be configured", name),
			})
			continue
		}
		val := statics[name]
		if !val.IsKnown() || val.IsNull() {
			continue
		}
		if !typeMatches(a, val) {
			v.add(Finding{
				RuleID: "schema/type", Severity: hcl.DiagError,
				Addr: inst.Addr, Attr: name, Range: rng,
				Summary: fmt.Sprintf("attribute %q expects %s, got %s", name, a.Type, val.Kind()),
			})
			continue
		}
		if len(a.OneOf) > 0 && val.Kind() == eval.KindString && !containsStr(a.OneOf, val.AsString()) {
			v.add(Finding{
				RuleID: "schema/one-of", Severity: hcl.DiagError,
				Addr: inst.Addr, Attr: name, Range: rng,
				Summary: fmt.Sprintf("%q is not a valid value for %q", val.AsString(), name),
				Detail:  "allowed: " + strings.Join(a.OneOf, ", "),
			})
		}
	}
}

func typeMatches(a *schema.AttrSchema, v eval.Value) bool {
	switch a.Type {
	case schema.TypeString:
		// Numbers and bools convert implicitly, matching the evaluator.
		return v.Kind() == eval.KindString || v.Kind() == eval.KindNumber || v.Kind() == eval.KindBool
	case schema.TypeNumber:
		if v.Kind() == eval.KindString {
			_, err := eval.ToNumberValue(v)
			return err == nil
		}
		return v.Kind() == eval.KindNumber
	case schema.TypeBool:
		return v.Kind() == eval.KindBool
	case schema.TypeList:
		return v.Kind() == eval.KindList
	case schema.TypeMap:
		return v.Kind() == eval.KindObject
	}
	return true
}

func containsStr(list []string, s string) bool {
	for _, e := range list {
		if e == s {
			return true
		}
	}
	return false
}

// --- semantic reference checks (§3.2) --------------------------------------

// refTargets extracts the resource references inside an expression: pairs of
// (resource type, referenced attribute).
type refTarget struct {
	typ      string
	name     string
	lastAttr string
	rng      hcl.Range
}

func refTargetsOf(expr hcl.Expression) []refTarget {
	var out []refTarget
	for _, tr := range expr.Variables() {
		root := tr.RootName()
		if _, isType := schema.LookupResource(root); !isType {
			continue
		}
		t := refTarget{typ: root, rng: expr.Range()}
		if len(tr) >= 2 {
			if a, ok := tr[1].(hcl.TraverseAttr); ok {
				t.name = a.Name
			}
		}
		for _, step := range tr[2:] {
			if a, ok := step.(hcl.TraverseAttr); ok {
				t.lastAttr = a.Name
			}
		}
		out = append(out, t)
	}
	return out
}

// checkSemanticRefs verifies that reference-typed attributes reference the
// right kind of resource — the paper's "this string is specifically a
// network interface" typing.
func (v *validator) checkSemanticRefs(inst *config.Instance) {
	rs, ok := schema.LookupResource(inst.Type)
	if !ok {
		return
	}
	for name, expr := range inst.Attrs {
		a := rs.Attr(name)
		if a == nil || a.Semantic.Kind != schema.SemResourceRef {
			continue
		}
		for _, target := range refTargetsOf(expr) {
			if !a.Semantic.Accepts(target.typ) {
				v.add(Finding{
					RuleID: "semantic/ref-type", Severity: hcl.DiagError,
					Addr: inst.Addr, Attr: name, Range: inst.AttrRange[name],
					Summary: fmt.Sprintf("attribute %q expects a reference to %s, but references a %s",
						name, strings.Join(a.Semantic.RefTypes, " or "), target.typ),
					Detail: "resource IDs are semantically typed; passing the ID of a different resource type would fail at deploy time",
				})
				continue
			}
			if target.lastAttr != "" && target.lastAttr != "id" {
				v.add(Finding{
					RuleID: "semantic/ref-attr", Severity: hcl.DiagWarning,
					Addr: inst.Addr, Attr: name, Range: inst.AttrRange[name],
					Summary: fmt.Sprintf("attribute %q expects a resource ID but references %s.%s.%s",
						name, target.typ, target.name, target.lastAttr),
				})
			}
		}
	}
}

// checkValueSemantics validates CIDR/IP/region-valued attributes statically.
func (v *validator) checkValueSemantics(inst *config.Instance) {
	rs, ok := schema.LookupResource(inst.Type)
	if !ok {
		return
	}
	prov, _ := schema.ProviderForType(inst.Type)
	statics := v.static[inst.Addr]
	for name := range inst.Attrs {
		a := rs.Attr(name)
		if a == nil {
			continue
		}
		val := statics[name]
		if !val.IsKnown() || val.IsNull() {
			continue
		}
		rng := inst.AttrRange[name]
		switch a.Semantic.Kind {
		case schema.SemCIDR:
			for _, s := range stringsOf(val) {
				if _, err := netip.ParsePrefix(s); err != nil {
					v.add(Finding{
						RuleID: "semantic/cidr", Severity: hcl.DiagError,
						Addr: inst.Addr, Attr: name, Range: rng,
						Summary: fmt.Sprintf("%q is not a valid CIDR block", s),
					})
				}
			}
		case schema.SemIPAddress:
			for _, s := range stringsOf(val) {
				if _, err := netip.ParseAddr(s); err != nil {
					v.add(Finding{
						RuleID: "semantic/ip", Severity: hcl.DiagError,
						Addr: inst.Addr, Attr: name, Range: rng,
						Summary: fmt.Sprintf("%q is not a valid IP address", s),
					})
				}
			}
		case schema.SemRegion:
			if prov != nil && val.Kind() == eval.KindString && !containsStr(prov.Regions, val.AsString()) {
				v.add(Finding{
					RuleID: "semantic/region", Severity: hcl.DiagError,
					Addr: inst.Addr, Attr: name, Range: rng,
					Summary: fmt.Sprintf("%q is not a region of provider %q", val.AsString(), prov.Name),
					Detail:  "available: " + strings.Join(prov.Regions, ", "),
				})
			}
		}
	}
}

// checkUniqueNames reports statically known names that collide within one
// (type, region), between count/for_each siblings or distinct declarations:
// the cloud creates the first and refuses the next with 409 Conflict,
// leaving the deployment half done.
func (v *validator) checkUniqueNames() {
	type key struct{ typ, region, name string }
	first := map[key]string{}
	for _, inst := range v.ex.Instances {
		if _, set := inst.Attrs["name"]; !set || inst.Mode == config.DataMode || inst.Region == "" {
			continue
		}
		name := v.static[inst.Addr]["name"]
		if !name.IsKnown() || name.Kind() != eval.KindString {
			continue
		}
		k := key{inst.Type, inst.Region, name.AsString()}
		prev, dup := first[k]
		if !dup {
			first[k] = inst.Addr
			continue
		}
		v.add(Finding{
			RuleID: "semantic/unique-name", Severity: hcl.DiagError,
			Addr: inst.Addr, Attr: "name", Range: inst.AttrRange["name"],
			Summary: fmt.Sprintf("name %q is already used by %s; %s names must be unique in %s",
				k.name, prev, inst.Type, inst.Region),
			Detail: "the cloud would create the first and refuse this one with 409 Conflict, leaving the deployment half done",
		})
	}
}

// --- knowledge-base rules ---------------------------------------------------

// resolveRefInstances maps a reference attribute of an instance to the
// configuration instances it refers to.
func (v *validator) resolveRefInstances(inst *config.Instance, attr string) []*config.Instance {
	expr, ok := inst.Attrs[attr]
	if !ok {
		return nil
	}
	var out []*config.Instance
	for _, target := range refTargetsOf(expr) {
		if target.name == "" {
			continue
		}
		addr := target.typ + "." + target.name
		if inst.ModulePath != "" {
			addr = "module." + inst.ModulePath + "." + addr
		}
		out = append(out, v.ex.InstancesOf(addr)...)
	}
	return out
}

func (v *validator) checkRules(inst *config.Instance) {
	for _, rule := range v.kb.RulesFor(inst.Type) {
		switch rule.Kind {
		case schema.RuleSameRegion:
			v.checkSameRegion(inst, rule)
		case schema.RuleAttrRequiresValue:
			v.checkCoRequirement(inst, rule)
		case schema.RuleNoCIDROverlapWhenPeered:
			v.checkPeeringOverlap(inst, rule)
		case schema.RuleCIDRWithinParent:
			v.checkCIDRWithinParent(inst, rule)
		}
	}
}

func (v *validator) checkSameRegion(inst *config.Instance, rule *schema.Rule) {
	if inst.Region == "" {
		return // not statically known
	}
	for _, ref := range v.resolveRefInstances(inst, rule.RefAttr) {
		if ref.Region == "" || ref.Region == inst.Region {
			continue
		}
		v.add(Finding{
			RuleID: rule.ID, Severity: hcl.DiagError,
			Addr: inst.Addr, Attr: rule.RefAttr, Range: inst.AttrRange[rule.RefAttr],
			Summary: fmt.Sprintf("%s is in %q but referenced %s %s is in %q; %s",
				inst.Addr, inst.Region, ref.Type, ref.Addr, ref.Region, rule.Description),
			Detail: "at deploy time the cloud would report the referenced resource as \"not found\", hiding the real cause",
		})
	}
}

func (v *validator) checkCoRequirement(inst *config.Instance, rule *schema.Rule) {
	statics := v.static[inst.Addr]
	val, set := statics[rule.Attr]
	if !set || val.IsNull() {
		return
	}
	if _, configured := inst.Attrs[rule.Attr]; !configured {
		return // only a default; nothing the user wrote
	}
	actual, ok := statics[rule.RequiresAttr]
	if !ok {
		actual = eval.Null
	}
	if !actual.IsKnown() {
		return
	}
	if !actual.Equal(rule.RequiresValue) {
		v.add(Finding{
			RuleID: rule.ID, Severity: hcl.DiagError,
			Addr: inst.Addr, Attr: rule.Attr, Range: inst.AttrRange[rule.Attr],
			Summary: fmt.Sprintf("attribute %q may only be set when %q is %s (currently %s)",
				rule.Attr, rule.RequiresAttr, rule.RequiresValue, actual),
			Detail: rule.Description,
		})
	}
}

func (v *validator) checkPeeringOverlap(inst *config.Instance, rule *schema.Rule) {
	as := v.resolveRefInstances(inst, rule.PeerAttrA)
	bs := v.resolveRefInstances(inst, rule.PeerAttrB)
	for _, a := range as {
		for _, b := range bs {
			if a.Addr == b.Addr {
				continue
			}
			for _, ca := range stringsOf(v.static[a.Addr][rule.CIDRAttr]) {
				for _, cb := range stringsOf(v.static[b.Addr][rule.CIDRAttr]) {
					over, err := eval.PrefixesOverlap(ca, cb)
					if err != nil || !over {
						continue
					}
					v.add(Finding{
						RuleID: rule.ID, Severity: hcl.DiagError,
						Addr: inst.Addr, Range: inst.DeclRange,
						Summary: fmt.Sprintf("peered networks %s (%s) and %s (%s) have overlapping address spaces",
							a.Addr, ca, b.Addr, cb),
						Detail: rule.Description,
					})
				}
			}
		}
	}
}

func (v *validator) checkCIDRWithinParent(inst *config.Instance, rule *schema.Rule) {
	child := v.static[inst.Addr][rule.Attr]
	if !child.IsKnown() || child.Kind() != eval.KindString {
		return
	}
	for _, parent := range v.resolveRefInstances(inst, rule.RefAttr) {
		parentCIDRs := stringsOf(v.static[parent.Addr][rule.CIDRAttr])
		if len(parentCIDRs) == 0 {
			continue
		}
		contained := false
		for _, pc := range parentCIDRs {
			if over, err := eval.PrefixesOverlap(pc, child.AsString()); err == nil && over {
				contained = true
				break
			}
		}
		if !contained {
			v.add(Finding{
				RuleID: rule.ID, Severity: hcl.DiagError,
				Addr: inst.Addr, Attr: rule.Attr, Range: inst.AttrRange[rule.Attr],
				Summary: fmt.Sprintf("%q is outside the parent network's address space %v",
					child.AsString(), parentCIDRs),
				Detail: rule.Description,
			})
		}
	}
}

// stringsOf flattens a string or list-of-strings value into known strings.
func stringsOf(v eval.Value) []string {
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
