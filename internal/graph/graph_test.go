package graph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// diamond builds vm -> {nic1, nic2} -> subnet -> vpc.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	mustEdge(t, g, "vm", "nic1")
	mustEdge(t, g, "vm", "nic2")
	mustEdge(t, g, "nic1", "subnet")
	mustEdge(t, g, "nic2", "subnet")
	mustEdge(t, g, "subnet", "vpc")
	return g
}

func mustEdge(t *testing.T, g *Graph, from, to string) {
	t.Helper()
	if err := g.AddEdge(from, to); err != nil {
		t.Fatal(err)
	}
}

func TestTopoSortOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, pair := range [][2]string{{"vpc", "subnet"}, {"subnet", "nic1"}, {"subnet", "nic2"}, {"nic1", "vm"}, {"nic2", "vm"}} {
		if pos[pair[0]] >= pos[pair[1]] {
			t.Errorf("%s must come before %s: order %v", pair[0], pair[1], order)
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := diamond(t)
	first, _ := g.TopoSort()
	for i := 0; i < 10; i++ {
		again, _ := g.TopoSort()
		if strings.Join(first, ",") != strings.Join(again, ",") {
			t.Fatalf("nondeterministic order: %v vs %v", first, again)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	mustEdge(t, g, "a", "b")
	mustEdge(t, g, "b", "c")
	mustEdge(t, g, "c", "a")
	_, err := g.TopoSort()
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CycleError", err)
	}
	if len(ce.Cycle) < 3 {
		t.Errorf("cycle = %v", ce.Cycle)
	}
	if !strings.Contains(ce.Error(), "->") {
		t.Errorf("error = %q", ce.Error())
	}
}

func TestSelfEdgeRejected(t *testing.T) {
	g := New()
	if err := g.AddEdge("a", "a"); err == nil {
		t.Fatal("self-edge must be rejected")
	}
}

func TestRemoveNode(t *testing.T) {
	g := diamond(t)
	g.RemoveNode("subnet")
	if g.HasNode("subnet") {
		t.Fatal("node still present")
	}
	if len(g.Dependencies("nic1")) != 0 {
		t.Errorf("dangling dependency: %v", g.Dependencies("nic1"))
	}
	if len(g.Dependents("vpc")) != 0 {
		t.Errorf("dangling dependent: %v", g.Dependents("vpc"))
	}
}

func TestRootsAndLeaves(t *testing.T) {
	g := diamond(t)
	if got := g.Roots(); len(got) != 1 || got[0] != "vpc" {
		t.Errorf("roots = %v", got)
	}
	if got := g.Leaves(); len(got) != 1 || got[0] != "vm" {
		t.Errorf("leaves = %v", got)
	}
}

func TestImpactScope(t *testing.T) {
	g := diamond(t)
	scope := g.ImpactScope("subnet")
	for _, want := range []string{"subnet", "nic1", "nic2", "vm"} {
		if _, ok := scope[want]; !ok {
			t.Errorf("impact scope missing %s: %v", want, scope)
		}
	}
	if _, ok := scope["vpc"]; ok {
		t.Error("vpc is upstream of the change; it must not be in the impact scope")
	}
	// Changing a leaf affects only itself.
	scope = g.ImpactScope("vm")
	if len(scope) != 1 {
		t.Errorf("leaf scope = %v", scope)
	}
}

func TestSubgraph(t *testing.T) {
	g := diamond(t)
	sub := g.Subgraph(g.ImpactScope("subnet"))
	if sub.HasNode("vpc") {
		t.Error("subgraph leaked node outside keep set")
	}
	if len(sub.Dependencies("vm")) != 2 {
		t.Errorf("vm deps in subgraph = %v", sub.Dependencies("vm"))
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalPath(t *testing.T) {
	g := diamond(t)
	costs := map[string]time.Duration{
		"vpc": 10 * time.Second, "subnet": 5 * time.Second,
		"nic1": 8 * time.Second, "nic2": 1 * time.Second, "vm": 90 * time.Second,
	}
	level, longest, err := g.CriticalPath(func(n string) time.Duration { return costs[n] })
	if err != nil {
		t.Fatal(err)
	}
	// Longest chain: vpc(10) + subnet(5) + nic1(8) + vm(90) = 113s.
	if longest != 113*time.Second {
		t.Errorf("critical path = %v, want 113s", longest)
	}
	if level["nic1"] != 98*time.Second || level["nic2"] != 91*time.Second {
		t.Errorf("bottom levels: nic1=%v nic2=%v", level["nic1"], level["nic2"])
	}
	if level["vpc"] != 113*time.Second {
		t.Errorf("root level = %v", level["vpc"])
	}
}

func TestWalkRespectsDependencies(t *testing.T) {
	g := diamond(t)
	var mu sync.Mutex
	seen := map[string]bool{}
	report := g.Walk(context.Background(), WalkOptions{Concurrency: 4}, func(n string) error {
		mu.Lock()
		defer mu.Unlock()
		for _, dep := range g.Dependencies(n) {
			if !seen[dep] {
				return fmt.Errorf("node %s ran before its dependency %s", n, dep)
			}
		}
		seen[n] = true
		return nil
	})
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	done, failed, skipped := report.Counts()
	if done != 5 || failed != 0 || skipped != 0 {
		t.Errorf("counts = %d/%d/%d", done, failed, skipped)
	}
}

func TestWalkParallelism(t *testing.T) {
	// A wide graph of independent nodes must actually run concurrently.
	g := New()
	for i := 0; i < 16; i++ {
		g.AddNode(fmt.Sprintf("n%02d", i))
	}
	var cur, peak int32
	report := g.Walk(context.Background(), WalkOptions{Concurrency: 8}, func(n string) error {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt32(&peak); p < 2 {
		t.Errorf("observed peak concurrency %d; expected parallel execution", p)
	}
	if p := atomic.LoadInt32(&peak); p > 8 {
		t.Errorf("concurrency bound violated: peak %d > 8", p)
	}
}

func TestWalkFailureSkipsDependents(t *testing.T) {
	g := diamond(t)
	boom := errors.New("provisioning failed")
	report := g.Walk(context.Background(), WalkOptions{Concurrency: 2, ContinueOnError: true}, func(n string) error {
		if n == "subnet" {
			return boom
		}
		return nil
	})
	if report.Status["subnet"] != StatusFailed {
		t.Errorf("subnet = %s", report.Status["subnet"])
	}
	for _, skipped := range []string{"nic1", "nic2", "vm"} {
		if report.Status[skipped] != StatusSkipped {
			t.Errorf("%s = %s, want skipped", skipped, report.Status[skipped])
		}
	}
	if report.Status["vpc"] != StatusDone {
		t.Errorf("vpc = %s, want done", report.Status["vpc"])
	}
	if report.Err() == nil {
		t.Error("report must carry the failure")
	}
}

func TestWalkStopOnErrorHaltsIndependentBranches(t *testing.T) {
	g := New()
	// "a-fail" sorts first, so with concurrency 1 it runs before the
	// independent z-chain; its failure must stop the whole walk.
	g.AddNode("a-fail")
	mustEdge(t, g, "z2", "z1")
	var ran int32
	report := g.Walk(context.Background(), WalkOptions{Concurrency: 1}, func(n string) error {
		if n == "a-fail" {
			return errors.New("boom")
		}
		atomic.AddInt32(&ran, 1)
		return nil
	})
	_, failed, _ := report.Counts()
	if failed != 1 {
		t.Errorf("failed = %d", failed)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Errorf("walk continued after failure: ran %d", ran)
	}
	if report.Status["z1"] != StatusSkipped || report.Status["z2"] != StatusSkipped {
		t.Errorf("independent branch not skipped: z1=%s z2=%s",
			report.Status["z1"], report.Status["z2"])
	}
}

func TestWalkContextCancellation(t *testing.T) {
	g := New()
	for i := 0; i < 50; i++ {
		g.AddNode(fmt.Sprintf("n%02d", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	report := g.Walk(ctx, WalkOptions{Concurrency: 1}, func(n string) error {
		if atomic.AddInt32(&ran, 1) == 3 {
			cancel()
		}
		return nil
	})
	done, _, skipped := report.Counts()
	if done >= 50 || skipped == 0 {
		t.Errorf("cancellation ineffective: done=%d skipped=%d", done, skipped)
	}
}

func TestWalkPriorityOrder(t *testing.T) {
	// With concurrency 1, ready nodes must run in priority order.
	g := New()
	for _, n := range []string{"low", "mid", "high"} {
		g.AddNode(n)
	}
	prio := map[string]float64{"low": 1, "mid": 5, "high": 9}
	var order []string
	var mu sync.Mutex
	g.Walk(context.Background(), WalkOptions{
		Concurrency: 1,
		Priority:    func(n string) float64 { return prio[n] },
	}, func(n string) error {
		mu.Lock()
		order = append(order, n)
		mu.Unlock()
		return nil
	})
	want := "high,mid,low"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

func TestWalkCyclicGraphFails(t *testing.T) {
	g := New()
	mustEdge(t, g, "a", "b")
	mustEdge(t, g, "b", "a")
	report := g.Walk(context.Background(), WalkOptions{}, func(n string) error { return nil })
	if report.Err() == nil {
		t.Fatal("walking a cyclic graph must fail")
	}
}

func TestWalkEmptyGraph(t *testing.T) {
	g := New()
	report := g.Walk(context.Background(), WalkOptions{}, func(n string) error { return nil })
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
}

// Property: for random DAGs (edges only from higher to lower index, so
// acyclic by construction), TopoSort yields a valid linearization and Walk
// completes every node.
func TestRandomDAGPropertiesQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("n%03d", i))
		}
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.15 {
					if err := g.AddEdge(fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", j)); err != nil {
						return false
					}
				}
			}
		}
		order, err := g.TopoSort()
		if err != nil || len(order) != n {
			return false
		}
		pos := map[string]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, from := range g.Nodes() {
			for _, to := range g.Dependencies(from) {
				if pos[to] >= pos[from] {
					return false
				}
			}
		}
		report := g.Walk(context.Background(), WalkOptions{Concurrency: 4}, func(string) error { return nil })
		done, _, _ := report.Counts()
		return done == n && report.Err() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.RemoveNode("vm")
	if !g.HasNode("vm") {
		t.Error("clone mutation leaked into original")
	}
	if c.Len() != g.Len()-1 {
		t.Errorf("clone len = %d", c.Len())
	}
}

func TestDOTOutput(t *testing.T) {
	g := New()
	mustEdge(t, g, "a", "b")
	dot := g.DOT("deps")
	if !strings.Contains(dot, `"a" -> "b"`) {
		t.Errorf("DOT = %s", dot)
	}
}

// referenceTopoSort is TopoSort as it was before the ready set became a heap:
// the ready list is re-sorted whenever a node unlocks others. It is kept here
// as the oracle the heap must match.
func referenceTopoSort(g *Graph) ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	for n := range g.nodes {
		indeg[n] = len(g.deps[n])
	}
	var ready []string
	for n, d := range indeg {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	sort.Strings(ready)
	out := make([]string, 0, len(g.nodes))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		var unlocked []string
		for rd := range g.rdeps[n] {
			indeg[rd]--
			if indeg[rd] == 0 {
				unlocked = append(unlocked, rd)
			}
		}
		if len(unlocked) > 0 {
			ready = append(ready, unlocked...)
			sort.Strings(ready)
		}
	}
	if len(out) != len(g.nodes) {
		return nil, &CycleError{Cycle: g.findCycle()}
	}
	return out, nil
}

// TestTopoSortMatchesReference: on random graphs — DAGs, and DAGs with back
// edges that close cycles — the heap sort returns exactly the order, or the
// *CycleError naming exactly the cycle, of the sort it replaced. Node names
// are random so the lexicographic tie-break is not the insertion order.
func TestTopoSortMatchesReference(t *testing.T) {
	cycles := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("%c%d", 'a'+rng.Intn(26), rng.Intn(1000))
		}
		g := New()
		for _, name := range names {
			g.AddNode(name)
		}
		density := rng.Float64() * 0.3
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if names[i] != names[j] && rng.Float64() < density {
					mustEdge(t, g, names[i], names[j])
				}
			}
		}
		if seed%3 == 0 && n > 1 {
			// Back edges: some of these close cycles.
			for k := 0; k < 1+rng.Intn(3); k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if names[i] != names[j] {
					mustEdge(t, g, names[j], names[i])
				}
			}
		}
		got, gotErr := g.TopoSort()
		want, wantErr := referenceTopoSort(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: TopoSort = %v, reference = %v", seed, got, want)
		}
		var gotCycle, wantCycle *CycleError
		if errors.As(gotErr, &gotCycle) != errors.As(wantErr, &wantCycle) {
			t.Fatalf("seed %d: TopoSort error %v, reference error %v", seed, gotErr, wantErr)
		}
		if gotCycle != nil {
			cycles++
			if !reflect.DeepEqual(gotCycle.Cycle, wantCycle.Cycle) {
				t.Fatalf("seed %d: cycle %v, reference cycle %v", seed, gotCycle.Cycle, wantCycle.Cycle)
			}
		}
	}
	if cycles < 20 {
		t.Errorf("only %d of 300 graphs were cyclic: the cycle path is barely exercised", cycles)
	}
}
