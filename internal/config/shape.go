package config

import "cloudless/internal/graph"

// Shape is what planning derives from an expansion's instance addresses and
// declarations alone, never from a variable's value: the resource-level
// dependency graph, its evaluation order, and the instances grouped by
// resource. It is built once per expansion, on first use, and an expansion
// that Reexpand derives shares it while no instance address moves. A Shape
// is immutable.
type Shape struct {
	// Graph has an edge A → B when resource-level address A depends on B.
	Graph *graph.Graph
	// Order is Graph's topological order, or nil when Err is set.
	Order []string
	// Err is the *graph.CycleError of a cyclic configuration.
	Err error
	// Groups holds one entry per resource-level address, in instance order.
	Groups []Group

	index    map[string]int // resource-level address -> Groups index
	memberOf map[string]int // instance address -> Groups index
}

// Group is one resource-level address and where its instances sit: they are
// Instances[Start:End] of any expansion that has the shape.
type Group struct {
	Addr       string
	Start, End int
}

// Index returns the Groups index of a resource-level address.
func (s *Shape) Index(resourceAddr string) (int, bool) {
	i, ok := s.index[resourceAddr]
	return i, ok
}

// GroupOf returns the Groups index of the group an instance address belongs
// to.
func (s *Shape) GroupOf(instanceAddr string) (int, bool) {
	i, ok := s.memberOf[instanceAddr]
	return i, ok
}

// Shape returns the expansion's shape, building it on first use. It is safe
// for concurrent use.
func (ex *Expansion) Shape() *Shape {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.shape == nil {
		ex.shape = newShape(ex.Instances)
	}
	return ex.shape
}

// newShape groups address-sorted instances by resource and builds the
// dependency graph and its order.
func newShape(insts []*Instance) *Shape {
	s := &Shape{index: map[string]int{}, memberOf: make(map[string]int, len(insts))}
	for i := 0; i < len(insts); {
		r := insts[i].ResourceAddr()
		j := i + 1
		for j < len(insts) && insts[j].ResourceAddr() == r {
			j++
		}
		gi := len(s.Groups)
		s.Groups = append(s.Groups, Group{Addr: r, Start: i, End: j})
		s.index[r] = gi
		for _, inst := range insts[i:j] {
			s.memberOf[inst.Addr] = gi
		}
		i = j
	}
	g := graph.New()
	for _, gr := range s.Groups {
		g.AddNode(gr.Addr)
	}
	for _, gr := range s.Groups {
		// Every instance of a declaration shares its DependsOn, which never
		// names the resource itself: AddEdge's only error is a self-edge.
		for _, dep := range insts[gr.Start].DependsOn {
			if g.HasNode(dep) {
				_ = g.AddEdge(gr.Addr, dep)
			}
		}
	}
	s.Graph = g
	s.Order, s.Err = g.TopoSort()
	return s
}
