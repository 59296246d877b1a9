package binpack

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"strippack/internal/dag"
)

// chainGraph returns the path 0 -> 1 -> ... -> n-1.
func chainGraph(n int) *dag.Graph {
	g := dag.New(n)
	for i := 0; i+1 < n; i++ {
		_ = g.AddEdge(i, i+1)
	}
	return g
}

// ValidatePrecedence additionally checks that every precedence edge (u,v)
// puts u in a strictly earlier bin than v (the paper's a ≺ b rule).
func (a *Assignment) ValidatePrecedence(sizes []float64, g *dag.Graph) error {
	if err := a.Validate(sizes); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if a.Bin[e[0]] >= a.Bin[e[1]] {
			return fmt.Errorf("binpack: precedence %d->%d violated (bins %d,%d)",
				e[0], e[1], a.Bin[e[0]], a.Bin[e[1]])
		}
	}
	return nil
}

// BinLoads returns the per-bin total sizes of an assignment, for the
// red/green density accounting of Theorem 2.6.
func BinLoads(a *Assignment, sizes []float64) []float64 {
	loads := make([]float64, a.NumBins)
	for i, b := range a.Bin {
		loads[b] += sizes[i]
	}
	return loads
}

func TestPrecNextFitChainForcesOneBinEach(t *testing.T) {
	// A chain of 4 small items: precedence forces 4 bins even though all
	// would fit in one.
	s := sizesOf(0.1, 0.1, 0.1, 0.1)
	g := chainGraph(4)
	r, err := PrecNextFit(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBins != 4 {
		t.Fatalf("bins = %d, want 4", r.NumBins)
	}
	if err := r.ValidatePrecedence(s, g); err != nil {
		t.Fatal(err)
	}
	// Every closure was a skip: the queue empties after each placement.
	if r.Skips < 3 {
		t.Fatalf("skips = %d, want >= 3", r.Skips)
	}
}

func TestPrecNextFitNoEdgesMatchesNextFitCount(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.05 + 0.9*rng.Float64()
		}
		g := dag.New(n)
		r, err := PrecNextFit(s, g)
		if err != nil {
			t.Fatal(err)
		}
		nf, err := NextFit(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumBins != nf.NumBins {
			t.Fatalf("trial %d: prec-NF %d != NF %d", trial, r.NumBins, nf.NumBins)
		}
	}
}

func TestPrecNextFitRejectsCycle(t *testing.T) {
	g := dag.New(2)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 0)
	if _, err := PrecNextFit(sizesOf(0.5, 0.5), g); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestPrecNextFitSizeGraphMismatch(t *testing.T) {
	if _, err := PrecNextFit(sizesOf(0.5), dag.New(2)); err == nil {
		t.Fatal("mismatch accepted")
	}
}

func TestPrecFirstFitDiamond(t *testing.T) {
	// 0 -> {1,2} -> 3 with small sizes: FF needs 3 bins (level structure).
	g := dag.New(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(1, 3)
	_ = g.AddEdge(2, 3)
	s := sizesOf(0.2, 0.2, 0.2, 0.2)
	r, err := PrecFirstFit(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ValidatePrecedence(s, g); err != nil {
		t.Fatal(err)
	}
	if r.NumBins != 3 {
		t.Fatalf("bins = %d, want 3", r.NumBins)
	}
}

func TestPrecFirstFitPacksSiblingsTogether(t *testing.T) {
	// A source then 4 independent small items: FF packs them in one bin
	// after the source.
	g := dag.New(5)
	for v := 1; v < 5; v++ {
		_ = g.AddEdge(0, v)
	}
	s := sizesOf(0.5, 0.2, 0.2, 0.2, 0.2)
	r, err := PrecFirstFit(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBins != 2 {
		t.Fatalf("bins = %d, want 2 (%v)", r.NumBins, r.Bin)
	}
}

func TestLevelFFDRespectsLevels(t *testing.T) {
	g := dag.New(6)
	_ = g.AddEdge(0, 2)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(2, 4)
	_ = g.AddEdge(4, 5)
	s := sizesOf(0.3, 0.3, 0.5, 0.4, 0.4, 0.2)
	r, err := LevelFFD(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ValidatePrecedence(s, g); err != nil {
		t.Fatal(err)
	}
	lvl, _ := g.Levels()
	// Items on strictly higher levels sit in strictly later bins.
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if lvl[u] < lvl[v] && r.Bin[u] >= r.Bin[v] {
				t.Fatalf("level order broken: item %d (lvl %d, bin %d) vs %d (lvl %d, bin %d)",
					u, lvl[u], r.Bin[u], v, lvl[v], r.Bin[v])
			}
		}
	}
}

func TestPrecLowerBound(t *testing.T) {
	g := chainGraph(5)
	s := sizesOf(0.1, 0.1, 0.1, 0.1, 0.1)
	lb, err := PrecLowerBound(s, g)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 5 { // chain dominates area
		t.Fatalf("lb = %d, want 5", lb)
	}
	g2 := dag.New(4)
	s2 := sizesOf(0.9, 0.9, 0.9, 0.9)
	lb2, err := PrecLowerBound(s2, g2)
	if err != nil {
		t.Fatal(err)
	}
	if lb2 != 4 { // area dominates (3.6 -> ceil 4)
		t.Fatalf("lb2 = %d, want 4", lb2)
	}
}

func TestExactPrecSmall(t *testing.T) {
	// Chain of 3 -> 3 bins regardless of sizes.
	g := chainGraph(3)
	got, err := ExactPrec(sizesOf(0.1, 0.1, 0.1), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("ExactPrec chain = %d, want 3", got)
	}
	// No edges: equals plain exact bin packing.
	g2 := dag.New(4)
	s2 := sizesOf(0.6, 0.6, 0.4, 0.4)
	got2, err := ExactPrec(s2, g2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := ExactBranchBound(s2, 0)
	if got2 != want2 {
		t.Fatalf("ExactPrec = %d, ExactBranchBound = %d", got2, want2)
	}
}

func TestExactPrecCapAndCycle(t *testing.T) {
	s := make([]float64, 20)
	for i := range s {
		s[i] = 0.1
	}
	if _, err := ExactPrec(s, dag.New(20), 0); err == nil {
		t.Fatal("cap not enforced")
	}
	g := dag.New(2)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 0)
	if _, err := ExactPrec(sizesOf(0.5, 0.5), g, 0); err == nil {
		t.Fatal("cycle accepted")
	}
}

// TestPrecHeuristicsVsExact: on random small DAG instances all three
// heuristics are valid, at least OPT, and PrecNextFit is within 3*OPT
// (Theorem 2.6) while skips <= OPT (Lemma 2.5).
func TestPrecHeuristicsVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.05 + 0.9*rng.Float64()
		}
		g := dag.RandomOrdered(rng, n, 0.3)
		opt, err := ExactPrec(s, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		nf, err := PrecNextFit(s, g)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := PrecFirstFit(s, g)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := LevelFFD(s, g)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*PrecResult{"nextfit": nf, "firstfit": ff, "levelffd": lf} {
			if err := r.ValidatePrecedence(s, g); err != nil {
				t.Fatalf("trial %d %s invalid: %v", trial, name, err)
			}
			if r.NumBins < opt {
				t.Fatalf("trial %d %s beat OPT: %d < %d", trial, name, r.NumBins, opt)
			}
		}
		if nf.NumBins > 3*opt {
			t.Fatalf("trial %d: PrecNextFit %d > 3*OPT=%d", trial, nf.NumBins, 3*opt)
		}
		if nf.Skips > opt {
			t.Fatalf("trial %d: skips %d > OPT %d (violates Lemma 2.5)", trial, nf.Skips, opt)
		}
		lb, err := PrecLowerBound(s, g)
		if err != nil {
			t.Fatal(err)
		}
		if lb > opt {
			t.Fatalf("trial %d: lower bound %d > OPT %d", trial, lb, opt)
		}
	}
}

// TestRedGreenAccounting reproduces the proof device of Theorem 2.6: color
// shelves bottom-up; red pairs have combined load >= 1, green shelves are
// skip-shelves. Then bins = r + g with r <= 2*ceil(area) and g <= skips.
func TestRedGreenAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.05 + 0.9*rng.Float64()
		}
		g := dag.RandomOrdered(rng, n, 0.25)
		r, err := PrecNextFit(s, g)
		if err != nil {
			return false
		}
		loads := BinLoads(&r.Assignment, s)
		red, green := 0, 0
		for i := 0; i < len(loads); {
			if i+1 < len(loads) && loads[i]+loads[i+1] >= 1-Eps {
				red += 2
				i += 2
			} else {
				green++
				i++
			}
		}
		if red+green != r.NumBins {
			return false
		}
		// Greens (except possibly the final shelf) are skip shelves.
		return green <= r.Skips+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
