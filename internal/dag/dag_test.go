package dag

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustEdges(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// HasEdge reports whether u -> v is present: a binary search over u's sorted
// out-row.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	g.Build()
	_, ok := slices.BinarySearch(g.outAdj[g.outOff[u]:g.outOff[u+1]], int32(v))
	return ok
}

// Out returns the successors of u in ascending order (a view into the CSR
// array; do not mutate).
func (g *Graph) Out(u int) []int32 {
	g.Build()
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// EdgeCount returns the number of distinct edges.
func (g *Graph) EdgeCount() int {
	g.Build()
	return len(g.edges)
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// Chain returns the path 0 -> 1 -> ... -> n-1.
func Chain(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		_ = g.AddEdge(i, i+1)
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Errorf("duplicate edge errored: %v", err)
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1 (dedup)", g.EdgeCount())
	}
}

func TestHasEdgeAndAdjacency(t *testing.T) {
	g := mustEdges(t, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if len(g.Out(0)) != 2 || len(g.In(2)) != 2 {
		t.Fatalf("adjacency wrong: out(0)=%v in(2)=%v", g.Out(0), g.In(2))
	}
}

func TestTopoOrderSimple(t *testing.T) {
	g := mustEdges(t, 4, [][2]int{{2, 1}, {1, 0}, {3, 0}})
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("order %v violates edge %v", order, e)
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := mustEdges(t, 5, [][2]int{{4, 2}, {3, 2}})
	a, _ := g.TopoOrder()
	b, _ := g.TopoOrder()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopoOrder not deterministic")
		}
	}
	// Smallest-index tie-break: sources 0,1,3,4 should appear as 0,1,3,4.
	if a[0] != 0 || a[1] != 1 {
		t.Fatalf("tie-break violated: %v", a)
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := mustEdges(t, 3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if _, err := g.TopoOrder(); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle not detected: %v", err)
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic true on a cycle")
	}
}

func TestLongestPathFChain(t *testing.T) {
	g := Chain(4)
	f, err := g.LongestPathF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 6, 10}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-12 {
			t.Fatalf("F = %v, want %v", f, want)
		}
	}
	if MaxF(f) != 10 {
		t.Fatalf("MaxF = %g", MaxF(f))
	}
}

func TestLongestPathFDiamond(t *testing.T) {
	//      0(h=1)
	//     /    \
	//  1(h=5)  2(h=2)
	//     \    /
	//      3(h=1)
	g := mustEdges(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	f, err := g.LongestPathF([]float64{1, 5, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if f[3] != 7 { // 1 + 5 + 1 through the taller branch
		t.Fatalf("F(3) = %g, want 7", f[3])
	}
}

func TestLongestPathFNoEdges(t *testing.T) {
	g := New(3)
	f, err := g.LongestPathF([]float64{2, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	if f[1] != 7 || MaxF(f) != 7 {
		t.Fatalf("isolated vertices: F=%v", f)
	}
}

func TestLongestPathFBadLength(t *testing.T) {
	g := New(3)
	if _, err := g.LongestPathF([]float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestLevels(t *testing.T) {
	g := mustEdges(t, 5, [][2]int{{0, 2}, {1, 2}, {2, 3}, {1, 4}})
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 2, 1}
	for i := range want {
		if lvl[i] != want[i] {
			t.Fatalf("Levels = %v, want %v", lvl, want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := mustEdges(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	sub, old, err := g.InducedSubgraph([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || len(old) != 3 {
		t.Fatalf("sub has %d vertices", sub.N())
	}
	// Only 0->4 survives (as 0->2 in new indices).
	if sub.EdgeCount() != 1 || !sub.HasEdge(0, 2) {
		t.Fatalf("induced edges wrong: %v", sub.Edges())
	}
	if _, _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Error("duplicate subset accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{9}); err == nil {
		t.Error("out-of-range subset accepted")
	}
}

// --- generators ---

func TestRandomLayeredIsLayeredDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomLayered(rng, 40, 5, 0.3)
	if !g.IsAcyclic() {
		t.Fatal("layered graph has a cycle")
	}
	lvl, _ := g.Levels()
	for _, e := range g.Edges() {
		if lvl[e[1]] != lvl[e[0]]+1 {
			t.Fatalf("edge %v not between adjacent levels (%d->%d)", e, lvl[e[0]], lvl[e[1]])
		}
	}
	// Every non-first-layer vertex has at least one predecessor.
	for v := 0; v < g.N(); v++ {
		if lvl[v] > 0 && len(g.In(v)) == 0 {
			t.Fatalf("vertex %d at level %d has no predecessor", v, lvl[v])
		}
	}
}

func TestRandomOrderedAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return RandomOrdered(rng, 2+rng.Intn(20), rng.Float64()).IsAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChainShape(t *testing.T) {
	g := Chain(5)
	if g.EdgeCount() != 4 {
		t.Fatalf("chain(5) has %d edges", g.EdgeCount())
	}
	f, _ := g.LongestPathF([]float64{1, 1, 1, 1, 1})
	if MaxF(f) != 5 {
		t.Fatalf("chain depth %g", MaxF(f))
	}
}

func TestJPEGPipelineShape(t *testing.T) {
	g := JPEGPipeline(4)
	if g.N() != 18 {
		t.Fatalf("JPEGPipeline(4) has %d vertices, want 18", g.N())
	}
	if !g.IsAcyclic() {
		t.Fatal("pipeline cyclic")
	}
	// Entropy sink depends on all blocks.
	if got := len(g.In(g.N() - 1)); got != 4 {
		t.Fatalf("entropy indegree %d, want 4", got)
	}
	h := make([]float64, g.N())
	for i := range h {
		h[i] = 1
	}
	f, _ := g.LongestPathF(h)
	if MaxF(f) != 6 { // header + 4 stages + entropy
		t.Fatalf("pipeline depth %g, want 6", MaxF(f))
	}
}

// TestFMonotoneUnderEdgeAddition: adding an edge can only increase F values.
func TestFMonotoneUnderEdgeAddition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		g := RandomOrdered(rng, n, 0.2)
		h := make([]float64, n)
		for i := range h {
			h[i] = rng.Float64() + 0.1
		}
		f1, err := g.LongestPathF(h)
		if err != nil {
			t.Fatal(err)
		}
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		_ = g.AddEdge(u, v)
		f2, err := g.LongestPathF(h)
		if err != nil {
			t.Fatal(err)
		}
		for i := range f1 {
			if f2[i] < f1[i]-1e-12 {
				t.Fatalf("F decreased at %d after adding edge (%d,%d)", i, u, v)
			}
		}
	}
}
