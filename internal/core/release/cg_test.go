package release

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"strippack/internal/geom"
	"strippack/internal/workload"
)

// TestSolveCGMatchesExact: column generation and SolveEnumerated reach the
// same optimal height as the eagerly enumerated model solved in exact
// rational arithmetic, on randomized quantized and continuous instances.
func TestSolveCGMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 30; trial++ {
		var in *geom.Instance
		if trial%2 == 0 {
			in = fpgaInstance(rng, 3+rng.Intn(8), 2+rng.Intn(3), 2*rng.Float64())
		} else {
			in = contInstance(rng, 3+rng.Intn(6), 2+rng.Intn(2), 1.5*rng.Float64())
		}
		fs, st, err := SolveCG(in, CGOptions{})
		if err != nil {
			t.Fatalf("trial %d: SolveCG: %v", trial, err)
		}
		m, err := BuildModel(in, 0)
		if err != nil {
			t.Fatalf("trial %d: BuildModel: %v", trial, err)
		}
		ex, err := solveModelExact(m)
		if err != nil {
			t.Fatalf("trial %d: exact solve: %v", trial, err)
		}
		if math.Abs(fs.Height-ex.Height) > 1e-6 {
			t.Fatalf("trial %d: CG height %g vs exact %g (Δ=%g)",
				trial, fs.Height, ex.Height, fs.Height-ex.Height)
		}
		if len(fs.Model.Configs) > len(m.Configs) {
			t.Fatalf("trial %d: CG generated %d configs, enumeration has only %d",
				trial, len(fs.Model.Configs), len(m.Configs))
		}
		if st.Columns != len(fs.Model.Configs)*fs.Model.NumPhases() {
			t.Fatalf("trial %d: stats report %d columns for %d configs × %d phases",
				trial, st.Columns, len(fs.Model.Configs), fs.Model.NumPhases())
		}
		en, err := SolveEnumerated(in)
		if err != nil {
			t.Fatalf("trial %d: SolveEnumerated: %v", trial, err)
		}
		if math.Abs(en.Height-ex.Height) > 1e-6 {
			t.Fatalf("trial %d: enumerated height %g vs exact %g (Δ=%g)",
				trial, en.Height, ex.Height, en.Height-ex.Height)
		}
	}
}

// TestSolveCGMatchesFloatOracle widens the sweep, for SolveCG and
// SolveEnumerated, against the float dense solver, where exact arithmetic
// would be too slow.
func TestSolveCGMatchesFloatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 25; trial++ {
		var in *geom.Instance
		if trial%2 == 0 {
			in = fpgaInstance(rng, 5+rng.Intn(15), 3+rng.Intn(2), 3*rng.Float64())
		} else {
			in = contInstance(rng, 4+rng.Intn(10), 3, 2*rng.Float64())
		}
		fs, _, err := SolveCG(in, CGOptions{})
		if err != nil {
			t.Fatalf("trial %d: SolveCG: %v", trial, err)
		}
		m, err := BuildModel(in, 0)
		if err != nil {
			t.Fatalf("trial %d: BuildModel: %v", trial, err)
		}
		or, err := SolveModel(m)
		if err != nil {
			t.Fatalf("trial %d: SolveModel: %v", trial, err)
		}
		if math.Abs(fs.Height-or.Height) > 1e-6 {
			t.Fatalf("trial %d: CG height %g vs dense %g", trial, fs.Height, or.Height)
		}
		en, err := SolveEnumerated(in)
		if err != nil {
			t.Fatalf("trial %d: SolveEnumerated: %v", trial, err)
		}
		if math.Abs(en.Height-or.Height) > 1e-6 {
			t.Fatalf("trial %d: enumerated height %g vs dense %g", trial, en.Height, or.Height)
		}
	}
}

// TestSolveCGDeterministic: the generated configuration sequence, the
// solution matrix and the stats are byte-identical for every pricing
// worker count — the worker pool only changes wall-clock time.
func TestSolveCGDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	for trial := 0; trial < 10; trial++ {
		var in *geom.Instance
		if trial%2 == 0 {
			in = fpgaInstance(rng, 6+rng.Intn(12), 3, 3)
		} else {
			in = contInstance(rng, 5+rng.Intn(8), 3, 2)
		}
		fs1, st1, err := SolveCG(in, CGOptions{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: workers=1: %v", trial, err)
		}
		fs8, st8, err := SolveCG(in, CGOptions{Workers: 8})
		if err != nil {
			t.Fatalf("trial %d: workers=8: %v", trial, err)
		}
		if !reflect.DeepEqual(fs1.Model.Configs, fs8.Model.Configs) {
			t.Fatalf("trial %d: generated configs differ between 1 and 8 workers", trial)
		}
		if !reflect.DeepEqual(fs1.X, fs8.X) {
			t.Fatalf("trial %d: solutions differ between 1 and 8 workers", trial)
		}
		if fs1.Height != fs8.Height || !reflect.DeepEqual(st1, st8) {
			t.Fatalf("trial %d: height/stats differ: %g/%+v vs %g/%+v",
				trial, fs1.Height, st1, fs8.Height, st8)
		}
	}
}

// TestSolveCGBasicOccurrences: the CG optimum is basic, so its occurrence
// count is bounded by the master's row count (the Lemma 3.4 precondition).
func TestSolveCGBasicOccurrences(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for trial := 0; trial < 20; trial++ {
		in := fpgaInstance(rng, 4+rng.Intn(12), 4, 2)
		fs, st, err := SolveCG(in, CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fs.Occurrences > st.Rows {
			t.Fatalf("trial %d: %d occurrences exceed %d master rows", trial, fs.Occurrences, st.Rows)
		}
	}
}

// TestSolveCGToIntegral: the CG solution feeds Lemma 3.4's conversion
// directly — valid packing, height within the occurrence bound.
func TestSolveCGToIntegral(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	for trial := 0; trial < 25; trial++ {
		in := fpgaInstance(rng, 3+rng.Intn(12), 4, 2)
		fs, _, err := SolveCG(in, CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := ToIntegral(in, fs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		bound := fs.Height + float64(fs.Occurrences)*maxHeight(in) + 1e-6
		if p.Height() > bound {
			t.Fatalf("trial %d: height %g > Lemma 3.4 bound %g", trial, p.Height(), bound)
		}
	}
}

func TestSolveCGValidation(t *testing.T) {
	empty := geom.NewInstance(1, nil)
	if _, _, err := SolveCG(empty, CGOptions{}); err == nil {
		t.Fatal("empty instance accepted")
	}
	if _, err := SolveEnumerated(empty); err == nil {
		t.Fatal("empty instance accepted by SolveEnumerated")
	}
	// A rectangle wider than the strip never reaches the LP: instance
	// validation refuses it, so both entry points return geom's width
	// error.
	wide := geom.NewInstance(1, []geom.Rect{{W: 2, H: 1}})
	want := wide.Validate()
	if want == nil || !strings.Contains(want.Error(), "exceeds strip width") {
		t.Fatalf("geom accepted an over-wide rectangle: %v", want)
	}
	if _, _, err := SolveCG(wide, CGOptions{}); err == nil || err.Error() != want.Error() {
		t.Fatalf("over-wide rectangle: SolveCG returned %v, want %v", err, want)
	}
	if _, err := SolveEnumerated(wide); err == nil || err.Error() != want.Error() {
		t.Fatalf("over-wide rectangle: SolveEnumerated returned %v, want %v", err, want)
	}
}

// TestSolveEnumeratedMatchesDense: on the LPs the Kenyon-Rémila packer
// solves (one phase, continuous widths grouped as internal/kr groups
// them), SolveEnumerated returns the dense tableau's basic optimum: the
// same configurations in the same order, the same nonzero (q, j), every
// value within 1e-10 relative and the height within 1e-12 relative. Both
// engines pivot by Bland's rule over the same column order, so only
// round-off separates them.
func TestSolveEnumeratedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(461))
	worst, configs := 0.0, 0
	for _, shape := range []struct {
		n   int
		eps float64
	}{{5000, 0.5}, {1500, 0.5}, {300, 0.75}, {30, 0.75}} {
		for trial := 0; trial < 4; trial++ {
			in := krGrouped(t, workload.Uniform(rng, shape.n, 0.05, 0.8, 0.05, 1), shape.eps)
			m, err := BuildModel(in, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := SolveModel(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveEnumerated(in)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("n=%d eps=%g trial %d", shape.n, shape.eps, trial)
			configs = max(configs, len(m.Configs))
			if !reflect.DeepEqual(got.Model.Configs, m.Configs) {
				t.Fatalf("%s: configurations differ from the enumeration", what)
			}
			if d := math.Abs(got.Height - want.Height); d > 1e-12*want.Height {
				t.Fatalf("%s: height %v vs dense %v", what, got.Height, want.Height)
			}
			if got.Occurrences != want.Occurrences {
				t.Fatalf("%s: %d occurrences vs dense %d", what, got.Occurrences, want.Occurrences)
			}
			for q := range want.X {
				for j, w := range want.X[q] {
					g := got.X[q][j]
					if (g > 0) != (w > 0) {
						t.Fatalf("%s: x[%d][%d] = %v vs dense %v: support differs", what, q, j, g, w)
					}
					if d := math.Abs(g - w); d > 1e-10*math.Max(g, w) {
						t.Fatalf("%s: x[%d][%d] = %v vs dense %v", what, q, j, g, w)
					} else if d > 0 {
						worst = max(worst, d/math.Max(g, w))
					}
				}
			}
		}
	}
	t.Logf("up to %d configurations; worst relative difference %.2g", configs, worst)
}

// krGrouped is the wide half of an instance as kr.Pack hands it to the
// configuration LP: rectangles wider than eps/3 of the strip, with
// release 0, their widths rounded up by linear grouping into 1/(eps/3)²+1
// groups.
func krGrouped(t *testing.T, in *geom.Instance, eps float64) *geom.Instance {
	t.Helper()
	epsPrime := min(eps/3, 0.5)
	var wide []geom.Rect
	for _, r := range in.Rects {
		if r.W > epsPrime*in.StripWidth() {
			r.Release = 0
			wide = append(wide, r)
		}
	}
	grouped, err := GroupWidths(geom.NewInstance(in.StripWidth(), wide), int(1/(epsPrime*epsPrime))+1)
	if err != nil {
		t.Fatal(err)
	}
	return grouped
}

// TestQuantizeWidths covers the unit detection both ways.
func TestQuantizeWidths(t *testing.T) {
	wu, L, ok := quantizeWidths(1, []float64{0.25, 0.5, 0.75, 1})
	if !ok || L != 4 {
		t.Fatalf("quarters: ok=%v L=%d", ok, L)
	}
	want := []int32{1, 2, 3, 4}
	for i := range want {
		if wu[i] != want[i] {
			t.Fatalf("quarters: wu=%v", wu)
		}
	}
	if wu, L, ok := quantizeWidths(1, []float64{1.0 / 3, 2.0 / 3}); !ok || L != 3 || wu[0] != 1 || wu[1] != 2 {
		t.Fatalf("thirds: ok=%v L=%d wu=%v", ok, L, wu)
	}
	if _, _, ok := quantizeWidths(1, []float64{0.31234567891, 0.57654321987}); ok {
		t.Fatal("continuous widths quantized")
	}
	if _, _, ok := quantizeWidths(1, nil); ok {
		t.Fatal("empty widths quantized")
	}
}

// TestPricingDPZeroAlloc: the bounded-knapsack pricing DP must not
// allocate once its scratch exists — the inner loop of every CG round.
func TestPricingDPZeroAlloc(t *testing.T) {
	widths := []float64{0.25, 0.5, 0.75, 1}
	wu, L, ok := quantizeWidths(1, widths)
	if !ok {
		t.Fatal("quantization failed")
	}
	p := newPricer(widths, 1, wu, L, true)
	nu := []float64{0.3, 0.7, 0.9, 1.1}
	allocs := testing.AllocsPerRun(100, func() {
		p.priceUnits(nu)
	})
	if allocs != 0 {
		t.Fatalf("pricing DP allocates %v per run, want 0", allocs)
	}
	// And the branch-and-bound fallback stays allocation-free too.
	pc := newPricer(widths, 1, nil, 0, false)
	allocs = testing.AllocsPerRun(100, func() {
		pc.priceDFS(nu)
	})
	if allocs != 0 {
		t.Fatalf("pricing DFS allocates %v per run, want 0", allocs)
	}
}

// TestPricingDPMatchesDFS: both pricers are exact, so on quantized widths
// they must agree on the optimal value.
func TestPricingDPMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	for trial := 0; trial < 200; trial++ {
		K := 2 + rng.Intn(6)
		widths := make([]float64, 0, K)
		for i := 1; i <= K; i++ {
			widths = append(widths, float64(i)/float64(K))
		}
		wu, L, ok := quantizeWidths(1, widths)
		if !ok {
			t.Fatal("quantization failed")
		}
		nu := make([]float64, K)
		for i := range nu {
			nu[i] = rng.Float64()
		}
		dp := newPricer(widths, 1, wu, L, true)
		bb := newPricer(widths, 1, nil, 0, false)
		vDP := dp.priceUnits(nu)
		vBB := bb.priceDFS(nu)
		if math.Abs(vDP-vBB) > 1e-9 {
			t.Fatalf("trial %d: DP %g vs DFS %g (nu=%v)", trial, vDP, vBB, nu)
		}
		// The DP's reconstructed argmax must achieve its value and fit.
		var val, wsum float64
		for i, c := range dp.counts {
			val += float64(c) * nu[i]
			wsum += float64(c) * widths[i]
		}
		if math.Abs(val-vDP) > 1e-9 || wsum > 1+geom.Eps {
			t.Fatalf("trial %d: reconstruction val=%g (want %g) width=%g", trial, val, vDP, wsum)
		}
	}
}

// TestBoundCacheDedups: identical instances solve once; different
// instances don't alias.
func TestBoundCacheDedups(t *testing.T) {
	rng := rand.New(rand.NewSource(457))
	in := fpgaInstance(rng, 8, 3, 2)
	other := fpgaInstance(rng, 8, 3, 2)
	c := NewBoundCache(CGOptions{})
	want, err := FractionalLowerBound(in, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.FractionalLowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cached bound %g != direct %g", got, want)
		}
	}
	wantOther, err := FractionalLowerBound(other, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotOther, err := c.FractionalLowerBound(other)
	if err != nil {
		t.Fatal(err)
	}
	if gotOther != wantOther {
		t.Fatalf("second instance: cached %g != direct %g", gotOther, wantOther)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

// TestCountConfigsMemoMatchesRecursion pins the DP against the exponential
// recursion on quantized widths where both paths are reachable.
func TestCountConfigsMemoMatchesRecursion(t *testing.T) {
	for K := 2; K <= 9; K++ {
		widths := make([]float64, 0, K)
		for i := 1; i <= K; i++ {
			widths = append(widths, float64(i)/float64(K))
		}
		got := CountConfigs(widths, 1) // DP path
		// Reference: the enumeration itself.
		cfgs, err := EnumerateConfigs(widths, 1, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if got != len(cfgs) {
			t.Fatalf("K=%d: CountConfigs=%d, enumeration=%d", K, got, len(cfgs))
		}
	}
}
