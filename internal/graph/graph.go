// Package graph implements the resource dependency graph at the heart of the
// Cloudless deployment engine: a DAG over resource addresses with
// deterministic topological ordering, cycle reporting, critical-path
// analysis (§3.3 "non-critical paths could make way for critical paths"),
// impact-scope computation for incremental planning (§3.3 "identify the
// impact scope of a deployment change"), and a concurrency-bounded parallel
// walk with pluggable scheduling priority.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Graph is a directed graph over string node IDs. An edge A → B declares
// that A depends on B: B must finish before A may start. The zero value is
// not ready to use; call New.
type Graph struct {
	nodes map[string]struct{}
	deps  map[string]map[string]struct{} // node -> its dependencies
	rdeps map[string]map[string]struct{} // node -> its dependents
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		nodes: map[string]struct{}{},
		deps:  map[string]map[string]struct{}{},
		rdeps: map[string]map[string]struct{}{},
	}
}

// AddNode inserts a node; adding an existing node is a no-op.
func (g *Graph) AddNode(id string) {
	g.nodes[id] = struct{}{}
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.nodes[id]
	return ok
}

// AddEdge declares that from depends on to. Both nodes are created if
// missing. Self-edges are rejected.
func (g *Graph) AddEdge(from, to string) error {
	if from == to {
		return fmt.Errorf("graph: self-dependency on %q", from)
	}
	g.AddNode(from)
	g.AddNode(to)
	if g.deps[from] == nil {
		g.deps[from] = map[string]struct{}{}
	}
	g.deps[from][to] = struct{}{}
	if g.rdeps[to] == nil {
		g.rdeps[to] = map[string]struct{}{}
	}
	g.rdeps[to][from] = struct{}{}
	return nil
}

// RemoveNode deletes a node and all of its edges.
func (g *Graph) RemoveNode(id string) {
	delete(g.nodes, id)
	for dep := range g.deps[id] {
		delete(g.rdeps[dep], id)
	}
	delete(g.deps, id)
	for rd := range g.rdeps[id] {
		delete(g.deps[rd], id)
	}
	delete(g.rdeps, id)
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Nodes returns all node IDs, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Dependencies returns the IDs a node depends on, sorted.
func (g *Graph) Dependencies(id string) []string {
	return sortedKeys(g.deps[id])
}

// Dependents returns the IDs that depend on a node, sorted.
func (g *Graph) Dependents(id string) []string {
	return sortedKeys(g.rdeps[id])
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for n := range g.nodes {
		c.AddNode(n)
	}
	for from, tos := range g.deps {
		for to := range tos {
			_ = c.AddEdge(from, to)
		}
	}
	return c
}

// CycleError reports a dependency cycle with the nodes along it.
type CycleError struct {
	Cycle []string
}

// Error renders the cycle in source-like notation.
func (e *CycleError) Error() string {
	return "dependency cycle: " + strings.Join(e.Cycle, " -> ")
}

// TopoSort returns the nodes in dependency-first order. Ties are broken
// lexicographically so output is deterministic: of the nodes whose
// dependencies are all out, the least comes next. Returns a *CycleError if
// the graph is cyclic.
func (g *Graph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	var ready minHeap
	for n := range g.nodes {
		d := len(g.deps[n])
		indeg[n] = d
		if d == 0 {
			ready = append(ready, n)
		}
	}
	ready.init()
	out := make([]string, 0, len(g.nodes))
	for len(ready) > 0 {
		n := ready.pop()
		out = append(out, n)
		for rd := range g.rdeps[n] {
			indeg[rd]--
			if indeg[rd] == 0 {
				ready.push(rd)
			}
		}
	}
	if len(out) != len(g.nodes) {
		return nil, &CycleError{Cycle: g.findCycle()}
	}
	return out, nil
}

// minHeap is a binary min-heap of node IDs: TopoSort's ready set, which
// yields the least ready node in O(log n) instead of re-sorting the set.
type minHeap []string

func (h minHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *minHeap) push(n string) {
	*h = append(*h, n)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *minHeap) pop() string {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
	return top
}

func (h minHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// findCycle locates one cycle for error reporting.
func (g *Graph) findCycle() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	parent := map[string]string{}
	var cycle []string
	var dfs func(n string) bool
	dfs = func(n string) bool {
		color[n] = gray
		for _, d := range g.Dependencies(n) {
			switch color[d] {
			case white:
				parent[d] = n
				if dfs(d) {
					return true
				}
			case gray:
				// Found a back edge n -> d; reconstruct the cycle.
				cycle = []string{d}
				for cur := n; cur != d; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				cycle = append(cycle, d)
				// Reverse to dependency order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[n] = black
		return false
	}
	for _, n := range g.Nodes() {
		if color[n] == white && dfs(n) {
			break
		}
	}
	return cycle
}

// Validate returns a CycleError if the graph has a cycle.
func (g *Graph) Validate() error {
	_, err := g.TopoSort()
	return err
}

// Roots returns nodes with no dependencies, sorted.
func (g *Graph) Roots() []string {
	var out []string
	for n := range g.nodes {
		if len(g.deps[n]) == 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Leaves returns nodes with no dependents, sorted.
func (g *Graph) Leaves() []string {
	var out []string
	for n := range g.nodes {
		if len(g.rdeps[n]) == 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TransitiveDependents returns every node reachable from the seeds along
// dependent edges, excluding the seeds themselves.
func (g *Graph) TransitiveDependents(seeds ...string) map[string]struct{} {
	return g.reach(g.rdeps, seeds)
}

// TransitiveDependencies returns every node the seeds transitively depend
// on, excluding the seeds themselves.
func (g *Graph) TransitiveDependencies(seeds ...string) map[string]struct{} {
	return g.reach(g.deps, seeds)
}

func (g *Graph) reach(adj map[string]map[string]struct{}, seeds []string) map[string]struct{} {
	seen := map[string]struct{}{}
	stack := append([]string(nil), seeds...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range adj[n] {
			if _, ok := seen[next]; !ok {
				seen[next] = struct{}{}
				stack = append(stack, next)
			}
		}
	}
	for _, s := range seeds {
		delete(seen, s)
	}
	return seen
}

// ImpactScope computes the set of nodes a change to the seed nodes can
// affect: the seeds plus all transitive dependents (whose inputs may change)
// — the §3.3 "impact scope" that incremental planning confines work to.
func (g *Graph) ImpactScope(changed ...string) map[string]struct{} {
	scope := g.TransitiveDependents(changed...)
	for _, c := range changed {
		if g.HasNode(c) {
			scope[c] = struct{}{}
		}
	}
	return scope
}

// Subgraph returns the induced subgraph over the kept nodes.
func (g *Graph) Subgraph(keep map[string]struct{}) *Graph {
	s := New()
	for n := range keep {
		if g.HasNode(n) {
			s.AddNode(n)
		}
	}
	for from := range keep {
		for to := range g.deps[from] {
			if _, ok := keep[to]; ok {
				_ = s.AddEdge(from, to)
			}
		}
	}
	return s
}

// CriticalPath computes, for every node, the length of the longest cost
// chain that starts at the node and runs through its dependents (the node's
// "bottom level" in list-scheduling terms). Scheduling ready nodes by
// descending bottom level is the classic critical-path-first heuristic.
// Also returns the total critical path length of the graph.
func (g *Graph) CriticalPath(cost func(string) time.Duration) (map[string]time.Duration, time.Duration, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, 0, err
	}
	level := make(map[string]time.Duration, len(order))
	var longest time.Duration
	// Process in reverse topological order so dependents are done first.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		var maxDep time.Duration
		for rd := range g.rdeps[n] {
			if level[rd] > maxDep {
				maxDep = level[rd]
			}
		}
		level[n] = cost(n) + maxDep
		if level[n] > longest {
			longest = level[n]
		}
	}
	return level, longest, nil
}

// DOT renders the graph in Graphviz format for debugging.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Dependencies(from) {
			fmt.Fprintf(&b, "  %q -> %q;\n", from, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
