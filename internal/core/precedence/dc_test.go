package precedence

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"strippack/internal/binpack"
	"strippack/internal/dag"
	"strippack/internal/geom"
	"strippack/internal/packing"
)

// randomDAGInstance builds a random precedence instance.
func randomDAGInstance(rng *rand.Rand, n int, p float64) *geom.Instance {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{W: 0.05 + 0.8*rng.Float64(), H: 0.05 + 0.95*rng.Float64()}
	}
	in := geom.NewInstance(1, rects)
	g := dag.RandomOrdered(rng, n, p)
	in.Prec = g.Edges()
	return in
}

func TestFValuesChain(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 1}, {W: 0.5, H: 2}, {W: 0.5, H: 3},
	})
	in.AddEdge(0, 1)
	in.AddEdge(1, 2)
	f, err := FValues(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 6}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-12 {
			t.Fatalf("F = %v, want %v", f, want)
		}
	}
}

func TestLowerBoundPicksMax(t *testing.T) {
	// A chain of tall skinny rects: F dominates area.
	in := geom.NewInstance(1, []geom.Rect{{W: 0.1, H: 1}, {W: 0.1, H: 1}})
	in.AddEdge(0, 1)
	lb, err := LowerBound(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb-2) > 1e-12 {
		t.Fatalf("lb = %g, want 2 (critical path)", lb)
	}
	// Wide rects, no edges: area dominates.
	in2 := geom.NewInstance(1, []geom.Rect{{W: 1, H: 1}, {W: 1, H: 1}, {W: 1, H: 1}})
	lb2, err := LowerBound(in2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb2-3) > 1e-12 {
		t.Fatalf("lb2 = %g, want 3 (area)", lb2)
	}
}

func TestDCOnCycleFails(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}, {W: 0.5, H: 1}})
	in.AddEdge(0, 1)
	in.AddEdge(1, 0)
	if _, _, err := DC(in, nil); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestDCEmptyEdgesEqualsSubroutine(t *testing.T) {
	// With no precedence everything lands in one middle band, so DC equals
	// its subroutine.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		in := randomDAGInstance(rng, 1+rng.Intn(15), 0)
		// Heights must be equal for all rects to be in one band? No: the
		// band is F(s) in (H/2, H] and F-h <= H/2; with no edges F=h so
		// only rects with h > H/2 are mid. Shorter rects recurse. Either
		// way the result must validate and respect the guarantee.
		p, stats, err := DC(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if stats.Calls < 1 {
			t.Fatal("stats not populated")
		}
	}
}

func TestDCSingleRect(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.7, H: 3}})
	p, stats, err := DC(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Height()-3) > 1e-12 {
		t.Fatalf("height = %g, want 3", p.Height())
	}
	if stats.Bands != 1 {
		t.Fatalf("bands = %d, want 1", stats.Bands)
	}
}

func TestDCChainIsTight(t *testing.T) {
	// A chain must be packed exactly at F(S) (each band holds one rect).
	n := 8
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{W: 0.3, H: 1}
	}
	in := geom.NewInstance(1, rects)
	for i := 0; i+1 < n; i++ {
		in.AddEdge(i, i+1)
	}
	p, _, err := DC(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Height()-float64(n)) > 1e-9 {
		t.Fatalf("chain height = %g, want %d", p.Height(), n)
	}
}

// TestDCValidAndWithinGuarantee is the main Theorem 2.3 test: on random DAG
// instances the DC packing is feasible and its height is at most
// log2(n+1)*F(S) + 2*AREA(S).
func TestDCValidAndWithinGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(30)
		in := randomDAGInstance(rng, n, 0.15+0.3*rng.Float64())
		p, _, err := DC(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid packing: %v", trial, err)
		}
		bound, err := GuaranteeBound(in)
		if err != nil {
			t.Fatal(err)
		}
		if p.Height() > bound+1e-9 {
			t.Fatalf("trial %d: DC height %g exceeds guarantee %g", trial, p.Height(), bound)
		}
		lb, err := LowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		if p.Height() < lb-1e-9 {
			t.Fatalf("trial %d: DC height %g below lower bound %g", trial, p.Height(), lb)
		}
	}
}

// TestDCQuick drives the same property through testing/quick.
func TestDCQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomDAGInstance(rng, 2+rng.Intn(12), 0.3)
		p, _, err := DC(in, nil)
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDCWithLayeredDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(40)
		g := dag.RandomLayered(rng, n, 2+rng.Intn(5), 0.3)
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{W: 0.1 + 0.5*rng.Float64(), H: 0.2 + 0.8*rng.Float64()}
		}
		in := geom.NewInstance(1, rects)
		in.Prec = g.Edges()
		p, _, err := DC(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDCAlternativeSubroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	in := randomDAGInstance(rng, 25, 0.2)
	for name, algo := range map[string]packing.Algorithm{
		"ffdh": packing.FFDH, "bldh": packing.BLDH,
	} {
		p, _, err := DC(in, &DCOptions{Subroutine: algo})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDCSplitFractionValidation(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}})
	if _, _, err := DC(in, &DCOptions{SplitFraction: 1.5}); err == nil {
		t.Fatal("bad split fraction accepted")
	}
	if _, _, err := DC(in, &DCOptions{SplitFraction: -0.2}); err == nil {
		t.Fatal("negative split fraction accepted")
	}
}

// GuaranteeBound returns the proven upper bound of Theorem 2.3 for the
// instance, log2(n+1)·F(S) + 2·AREA(S)/width, from a separate FValues
// pass: the reference DC's heights are checked against. The strippack
// facade derives the same bound from DCStats.F instead.
func GuaranteeBound(in *geom.Instance) (float64, error) {
	f, err := FValues(in)
	if err != nil {
		return 0, err
	}
	n := float64(in.N())
	return math.Log2(n+1)*dag.MaxF(f) + 2*in.AreaLowerBound(), nil
}

// TestDCStatsFMatchesFValues: the F(S) DC's first level records is
// bit-identical to the maximum of a separate FValues pass, serial and
// parallel. The strippack facade derives PackDC's two bounds from it.
func TestDCStatsFMatchesFValues(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		in := randomDAGInstance(rng, 1+rng.Intn(400), 0.2*rng.Float64())
		f, err := FValues(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 8} {
			_, st, err := DC(in, &DCOptions{Workers: w})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, w, err)
			}
			if st.F != dag.MaxF(f) {
				t.Fatalf("trial %d workers %d: F %v, FValues max %v", trial, w, st.F, dag.MaxF(f))
			}
		}
	}
}

func TestGuaranteeBoundFormula(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 1, H: 1}})
	b, err := GuaranteeBound(in)
	if err != nil {
		t.Fatal(err)
	}
	// log2(2)*1 + 2*1 = 3.
	if math.Abs(b-3) > 1e-12 {
		t.Fatalf("bound = %g, want 3", b)
	}
}

// --- uniform height (Theorem 2.6) ---

func uniformInstance(rng *rand.Rand, n int, p float64) *geom.Instance {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{W: 0.05 + 0.9*rng.Float64(), H: 1}
	}
	in := geom.NewInstance(1, rects)
	in.Prec = dag.RandomOrdered(rng, n, p).Edges()
	return in
}

func TestNextFitUniformRejectsNonUniform(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}, {W: 0.5, H: 2}})
	if _, _, err := NextFitUniform(in); err == nil {
		t.Fatal("non-uniform heights accepted")
	}
}

func TestNextFitUniformChain(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.2, H: 1}, {W: 0.2, H: 1}, {W: 0.2, H: 1}})
	in.AddEdge(0, 1)
	in.AddEdge(1, 2)
	p, st, err := NextFitUniform(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Shelves != 3 || math.Abs(p.Height()-3) > 1e-9 {
		t.Fatalf("shelves=%d height=%g, want 3/3", st.Shelves, p.Height())
	}
}

// TestNextFitUniformThreeApprox: height <= 3*OPT via the exact precedence
// bin packing optimum on small instances.
func TestNextFitUniformThreeApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		in := uniformInstance(rng, n, 0.3)
		p, st, err := NextFitUniform(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g, _ := dag.FromEdges(in.N(), in.Prec)
		sizes := make([]float64, n)
		for i, r := range in.Rects {
			sizes[i] = r.W
		}
		opt, err := exactPrecBins(sizes, g)
		if err != nil {
			t.Fatal(err)
		}
		if st.Shelves > 3*opt {
			t.Fatalf("trial %d: %d shelves > 3*OPT=%d", trial, st.Shelves, 3*opt)
		}
		if st.Skips > opt {
			t.Fatalf("trial %d: skips %d > OPT %d", trial, st.Skips, opt)
		}
		if p2, st2, err := FirstFitUniform(in); err != nil || p2.Validate() != nil || st2.Shelves < opt {
			t.Fatalf("trial %d: first-fit uniform broken (err=%v)", trial, err)
		}
	}
}

func exactPrecBins(sizes []float64, g *dag.Graph) (int, error) {
	return binpack.ExactPrec(sizes, g, 12)
}

func TestToShelfSolutionAlignsEverything(t *testing.T) {
	// Build a valid non-shelf packing by stacking with fractional offsets.
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 1}, {W: 0.5, H: 1}, {W: 0.5, H: 1},
	})
	p := geom.NewPacking(in)
	p.Set(0, 0, 0)
	p.Set(1, 0.5, 0.4) // spans shelves 1 and 2
	p.Set(2, 0, 1.7)   // spans shelves 2 and 3
	if err := p.Validate(); err != nil {
		t.Fatalf("setup invalid: %v", err)
	}
	before := p.Height()
	if err := ToShelfSolution(p); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("after slide-down invalid: %v", err)
	}
	if p.Height() > before+geom.Eps {
		t.Fatalf("slide-down increased height: %g -> %g", before, p.Height())
	}
	for i := range in.Rects {
		m := math.Mod(p.Pos[i].Y, 1)
		if m > geom.Eps && m < 1-geom.Eps {
			t.Fatalf("rect %d still spans shelves at y=%g", i, p.Pos[i].Y)
		}
	}
}

// TestToShelfSolutionProperty: random feasible uniform packings convert to
// valid shelf solutions without height increase, preserving precedence.
func TestToShelfSolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		in := uniformInstance(rng, n, 0.25)
		// Build a feasible packing with random vertical jitter: place each
		// rect (topologically) on its own jittered level.
		g, _ := dag.FromEdges(in.N(), in.Prec)
		order, _ := g.TopoOrder()
		p := geom.NewPacking(in)
		y := 0.0
		for _, v := range order {
			p.Set(v, 0, y)
			y += 1 + rng.Float64()*0.7
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("setup: %v", err)
		}
		before := p.Height()
		if err := ToShelfSolution(p); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d after conversion: %v", trial, err)
		}
		if p.Height() > before+geom.Eps {
			t.Fatalf("trial %d: height grew", trial)
		}
	}
}

func TestSortByF(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.1, H: 3}, {W: 0.1, H: 1}, {W: 0.1, H: 2}})
	idx, err := SortByF(in)
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 0 {
		t.Fatalf("SortByF = %v", idx)
	}
}
