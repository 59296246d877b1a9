package dag

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// InducedSubgraph returns the subgraph on the given vertex subset together
// with the mapping newIndex -> oldIndex. Edges between retained vertices are
// kept, all others dropped. The subset must not contain duplicates.
//
// It materializes a fresh graph and is the reference implementation the
// SubgraphF property tests check against; production code uses SubgraphF,
// which answers the longest-path question over a subset without allocating.
func (g *Graph) InducedSubgraph(subset []int) (*Graph, []int, error) {
	newIdx := make(map[int]int, len(subset))
	for i, v := range subset {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("dag: subset vertex %d out of range", v)
		}
		if _, dup := newIdx[v]; dup {
			return nil, nil, fmt.Errorf("dag: duplicate vertex %d in subset", v)
		}
		newIdx[v] = i
	}
	sub := New(len(subset))
	for _, v := range subset {
		for _, w := range g.Out(v) {
			if j, ok := newIdx[int(w)]; ok {
				if err := sub.AddEdge(newIdx[v], j); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	old := append([]int(nil), subset...)
	return sub, old, nil
}

// TestSubgraphFMatchesInducedReference is the property test for the
// allocation-free fast path: on random DAGs and random vertex subsets,
// SubgraphF must agree exactly with the reference computation that
// materializes the induced subgraph and runs LongestPathF on it.
func TestSubgraphFMatchesInducedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := NewScratch(64)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		g := RandomOrdered(rng, n, rng.Float64()*0.6)
		heights := make([]float64, n)
		for i := range heights {
			heights[i] = 0.05 + rng.Float64()
		}
		var subset []int
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.6 {
				subset = append(subset, v)
			}
		}
		// RandomOrdered only has edges i -> j with i < j, so ascending ids
		// form a topological order, as SubgraphF requires.
		ids := make([]int32, len(subset))
		for k, v := range subset {
			ids[k] = int32(v)
		}
		maxF, err := g.SubgraphF(ids, heights, s)
		if err != nil {
			t.Fatalf("trial %d: SubgraphF: %v", trial, err)
		}
		sub, old, err := g.InducedSubgraph(subset)
		if err != nil {
			t.Fatalf("trial %d: InducedSubgraph: %v", trial, err)
		}
		subHeights := make([]float64, len(old))
		for k, v := range old {
			subHeights[k] = heights[v]
		}
		want, err := sub.LongestPathF(subHeights)
		if err != nil {
			t.Fatalf("trial %d: LongestPathF: %v", trial, err)
		}
		for k, v := range old {
			if got := s.F(int32(v)); got != want[k] {
				t.Fatalf("trial %d: F(%d) = %g, reference %g", trial, v, got, want[k])
			}
			// PredMax must be the max reference F over in-subset preds and
			// satisfy F = h + PredMax exactly (the Lemma 2.2 invariant DC
			// classifies with).
			pm := 0.0
			for _, u := range sub.In(k) {
				if want[u] > pm {
					pm = want[u]
				}
			}
			if got := s.PredMax(int32(v)); got != pm {
				t.Fatalf("trial %d: PredMax(%d) = %g, reference %g", trial, v, got, pm)
			}
			if s.F(int32(v)) != heights[v]+s.PredMax(int32(v)) {
				t.Fatalf("trial %d: F != h + PredMax at %d", trial, v)
			}
		}
		if want := MaxF(want); maxF != want {
			t.Fatalf("trial %d: maxF = %g, reference %g", trial, maxF, want)
		}
	}
}

// TestSubgraphFReusesScratchAcrossEpochs checks that a shared Scratch gives
// correct answers when the same graph is queried with overlapping subsets
// back to back — stale marks from earlier epochs must never leak.
func TestSubgraphFReusesScratchAcrossEpochs(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3, unit heights.
	g := Chain(4)
	heights := []float64{1, 1, 1, 1}
	s := NewScratch(4)
	full := []int32{0, 1, 2, 3}
	if got, err := g.SubgraphF(full, heights, s); err != nil || got != 4 {
		t.Fatalf("full chain: F=%g err=%v, want 4", got, err)
	}
	// Drop vertex 1: the chain breaks into 0 and 2 -> 3.
	if got, err := g.SubgraphF([]int32{0, 2, 3}, heights, s); err != nil || got != 2 {
		t.Fatalf("broken chain: F=%g err=%v, want 2", got, err)
	}
	if s.F(0) != 1 || s.F(2) != 1 || s.F(3) != 2 {
		t.Fatalf("broken chain Fs: %g %g %g", s.F(0), s.F(2), s.F(3))
	}
	// Re-query the full set: epoch bump must resurrect vertex 1.
	if got, err := g.SubgraphF(full, heights, s); err != nil || got != 4 {
		t.Fatalf("full chain again: F=%g err=%v, want 4", got, err)
	}
}

func TestSubgraphFErrors(t *testing.T) {
	g := Chain(3)
	heights := []float64{1, 1, 1}
	s := NewScratch(3)
	if _, err := g.SubgraphF([]int32{0, 0}, heights, s); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate subset: %v", err)
	}
	if _, err := g.SubgraphF([]int32{1, 0}, heights, s); err == nil || !strings.Contains(err.Error(), "topologically") {
		t.Fatalf("order violation: %v", err)
	}
	if _, err := g.SubgraphF([]int32{5}, heights, s); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := g.SubgraphF([]int32{0}, []float64{1}, s); err == nil {
		t.Fatal("wrong heights length accepted")
	}
	if _, err := g.SubgraphF([]int32{0}, heights, NewScratch(2)); err == nil {
		t.Fatal("undersized scratch accepted")
	}
	// Empty subset is legal and yields 0.
	if got, err := g.SubgraphF(nil, heights, s); err != nil || got != 0 {
		t.Fatalf("empty subset: F=%g err=%v", got, err)
	}
}

// TestSubgraphFZeroAlloc pins the allocation-free contract of the hot path.
func TestSubgraphFZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	g := RandomLayered(rng, n, 10, 0.2)
	heights := make([]float64, n)
	for i := range heights {
		heights[i] = 1 + rng.Float64()
	}
	// Subset in topological order: layered graphs only have edges from
	// lower to higher indices (layers are assigned by index).
	ids := make([]int32, 0, n)
	for v := 0; v < n; v += 2 {
		ids = append(ids, int32(v))
	}
	s := NewScratch(n)
	g.Build()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.SubgraphF(ids, heights, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SubgraphF allocates %.1f times per call, want 0", allocs)
	}
}

// TestScratchEpochWraparound forces the epoch counter to wrap and checks
// queries still answer correctly afterwards.
func TestScratchEpochWraparound(t *testing.T) {
	g := Chain(3)
	heights := []float64{1, 2, 3}
	s := NewScratch(3)
	s.epoch = math.MaxInt32 - 1
	for i := 0; i < 4; i++ {
		got, err := g.SubgraphF([]int32{0, 1, 2}, heights, s)
		if err != nil || got != 6 {
			t.Fatalf("wrap step %d: F=%g err=%v, want 6", i, got, err)
		}
	}
}
