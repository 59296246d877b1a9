// Package dag implements the directed-acyclic-graph machinery used by the
// precedence-constrained strip packing algorithms: topological orders,
// levels, the recursive F(s) lower bound of the paper (height of the top
// edge of s in an infinitely wide strip) over the whole graph or an induced
// vertex subset, plus generators for random and pipeline task graphs.
//
// # Representation
//
// A Graph is stored in compressed-sparse-row (CSR) form: one flat []int32
// adjacency array per direction (outAdj, inAdj) indexed by per-vertex offset
// arrays, built from the staged edge list on the first query. Rows are
// sorted ascending, and Edges is a single linear read. Duplicate edges are
// collapsed during the build (sort + compact); there is no per-edge hash
// map anywhere.
//
// AddEdge only stages an edge and marks the CSR dirty; the next query
// rebuilds it in O(m log m). A graph is safe for concurrent reads once
// built — call Build (or any query) before sharing it across goroutines. It
// is never safe for concurrent mutation.
//
// # Subset queries
//
// SubgraphF answers the inner-loop question of the paper's Algorithm 1: the
// longest-path F restricted to an induced vertex subset. Instead of
// materializing the induced subgraph it marks the subset in a caller-owned
// Scratch with the current epoch and walks each vertex's in-row, considering
// only neighbours whose mark matches the epoch. One call costs
// O(|ids| + edges touched) and allocates nothing; bumping the epoch retires
// the previous subset for free. See subgraph.go for the Scratch ownership
// rules.
package dag

import (
	"errors"
	"fmt"
	"slices"
)

// Graph is a DAG over vertices 0..N-1. Vertices correspond to rectangle IDs.
type Graph struct {
	n int
	// edges stages AddEdge input (possibly with duplicates) until the next
	// build; after a build it is the sorted, deduplicated edge list.
	edges [][2]int32
	dirty bool
	// CSR adjacency, valid when !dirty: the successors of u are
	// outAdj[outOff[u]:outOff[u+1]] sorted ascending, and symmetrically the
	// predecessors of v are inAdj[inOff[v]:inOff[v+1]].
	outOff, inOff []int32
	outAdj, inAdj []int32
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{n: n, dirty: true}
}

// FromEdges builds a graph on n vertices from an edge list. Duplicate edges
// are collapsed. It does not check acyclicity; call TopoOrder.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	g.edges = make([][2]int32, 0, len(edges))
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge stages edge u -> v; exact duplicates are collapsed at the next
// build.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("dag: self-loop on %d", u)
	}
	g.edges = append(g.edges, [2]int32{int32(u), int32(v)})
	g.dirty = true
	return nil
}

// Build finalizes the CSR arrays after a batch of AddEdge calls. Every query
// calls it implicitly; exposing it lets callers pay the O(m log m) cost
// eagerly, e.g. before sharing the graph across goroutines.
func (g *Graph) Build() {
	if g.dirty {
		g.build()
	}
}

func (g *Graph) build() {
	slices.SortFunc(g.edges, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	g.edges = slices.Compact(g.edges)
	m := len(g.edges)
	g.outOff = resizeZero(g.outOff, g.n+1)
	g.inOff = resizeZero(g.inOff, g.n+1)
	g.outAdj = resize(g.outAdj, m)
	g.inAdj = resize(g.inAdj, m)
	for _, e := range g.edges {
		g.outOff[e[0]+1]++
		g.inOff[e[1]+1]++
	}
	for v := 0; v < g.n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	// The edge list is sorted by (u,v), so the concatenated out-rows are
	// exactly the target column, and scattering sources in list order keeps
	// every in-row sorted too. inOff doubles as the scatter cursor and is
	// restored by the backward shift.
	for i, e := range g.edges {
		g.outAdj[i] = e[1]
		g.inAdj[g.inOff[e[1]]] = e[0]
		g.inOff[e[1]]++
	}
	for v := g.n; v >= 1; v-- {
		g.inOff[v] = g.inOff[v-1]
	}
	g.inOff[0] = 0
	g.dirty = false
}

func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeZero(s []int32, n int) []int32 {
	s = resize(s, n)
	clear(s)
	return s
}

// In returns the predecessors of u in ascending order (the paper's IN(s); a
// view into the CSR array, do not mutate).
func (g *Graph) In(u int) []int32 {
	g.Build()
	return g.inAdj[g.inOff[u]:g.inOff[u+1]]
}

// Edges returns all edges in deterministic (u, then v) ascending order: a
// linear read of the sorted CSR edge list.
func (g *Graph) Edges() [][2]int {
	g.Build()
	es := make([][2]int, len(g.edges))
	for i, e := range g.edges {
		es[i] = [2]int{int(e[0]), int(e[1])}
	}
	return es
}

// ErrCycle reports that the graph is not acyclic.
var ErrCycle = errors.New("dag: graph contains a cycle")

// TopoOrder returns a topological order (Kahn's algorithm with a smallest-
// index tie-break for determinism) or ErrCycle.
func (g *Graph) TopoOrder() ([]int, error) {
	g.Build()
	indeg := make([]int32, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = g.inOff[v+1] - g.inOff[v]
	}
	// Min-heap on vertex index for deterministic output.
	var heap intHeap
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			heap.push(v)
		}
	}
	order := make([]int, 0, g.n)
	for heap.len() > 0 {
		v := heap.pop()
		order = append(order, v)
		for _, w := range g.outAdj[g.outOff[v]:g.outOff[v+1]] {
			indeg[w]--
			if indeg[w] == 0 {
				heap.push(int(w))
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// LongestPathF computes the paper's F function: F(s) = h(s) if IN(s) is
// empty, else h(s) + max over predecessors of F. heights[v] is the height of
// rectangle v. It returns per-vertex F values. Returns ErrCycle on cyclic
// input.
func (g *Graph) LongestPathF(heights []float64) ([]float64, error) {
	if len(heights) != g.n {
		return nil, fmt.Errorf("dag: %d heights for %d vertices", len(heights), g.n)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	f := make([]float64, g.n)
	for _, v := range order {
		best := 0.0
		for _, u := range g.inAdj[g.inOff[v]:g.inOff[v+1]] {
			if f[u] > best {
				best = f[u]
			}
		}
		f[v] = heights[v] + best
	}
	return f, nil
}

// MaxF returns max_v F(v), the critical-path lower bound F(S) of the paper.
func MaxF(f []float64) float64 {
	var m float64
	for _, x := range f {
		if x > m {
			m = x
		}
	}
	return m
}

// Levels assigns each vertex its level: 0 for sources, else 1 + max level of
// predecessors. Used by the level-by-level GGJY-style bin packer.
func (g *Graph) Levels() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	lvl := make([]int, g.n)
	for _, v := range order {
		best := -1
		for _, u := range g.inAdj[g.inOff[v]:g.inOff[v+1]] {
			if lvl[u] > best {
				best = lvl[u]
			}
		}
		lvl[v] = best + 1
	}
	return lvl, nil
}

// intHeap is a minimal binary min-heap of ints, avoiding container/heap
// interface overhead in the hot topological-sort loop.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
