package kr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"strippack/internal/core/release"
	"strippack/internal/geom"
	"strippack/internal/packing"
	"strippack/internal/workload"
)

func TestPackValidatesInput(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}})
	if _, _, err := Pack(in, Options{Epsilon: 0}); err == nil {
		t.Fatal("epsilon=0 accepted")
	}
	withPrec := in.Clone()
	withPrec.Rects = append(withPrec.Rects, geom.Rect{ID: 1, W: 0.5, H: 1})
	withPrec.AddEdge(0, 1)
	if _, _, err := Pack(withPrec, Options{Epsilon: 1}); err == nil {
		t.Fatal("precedence accepted")
	}
	withRel := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1, Release: 2}})
	if _, _, err := Pack(withRel, Options{Epsilon: 1}); err == nil {
		t.Fatal("release accepted")
	}
	empty := geom.NewInstance(1, nil)
	if _, _, err := Pack(empty, Options{Epsilon: 1}); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestPackPerfectTwoColumns(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 1}, {W: 0.5, H: 1},
	})
	p, rep, err := Pack(in, Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Height()-1) > 1e-6 {
		t.Fatalf("height = %g, want 1", p.Height())
	}
	if rep.Wide != 2 || rep.Narrow != 0 {
		t.Fatalf("classification wrong: %+v", rep)
	}
}

func TestPackAllNarrow(t *testing.T) {
	// Widths far below the threshold: pure NFDH path.
	rects := make([]geom.Rect, 20)
	rng := rand.New(rand.NewSource(1))
	for i := range rects {
		rects[i] = geom.Rect{W: 0.01 + 0.02*rng.Float64(), H: 0.1 + 0.9*rng.Float64()}
	}
	in := geom.NewInstance(1, rects)
	p, rep, err := Pack(in, Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Wide != 0 || rep.Narrow != 20 {
		t.Fatalf("classification wrong: %+v", rep)
	}
}

// TestPackValidOnRandom is the central safety property across width mixes
// and epsilons.
func TestPackValidOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(25)
		in := workload.Uniform(rng, n, 0.02, 0.9, 0.05, 1)
		eps := []float64{3, 1.5, 1}[trial%3]
		p, rep, err := Pack(in, Options{Epsilon: eps})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		if math.Abs(p.Height()-rep.Height) > 1e-9 {
			t.Fatalf("trial %d: reported height %g, actual %g", trial, rep.Height, p.Height())
		}
		if p.Height() < in.AreaLowerBound()-1e-9 {
			t.Fatalf("trial %d: below area bound", trial)
		}
	}
}

func TestPackQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := workload.Uniform(rng, 3+rng.Intn(15), 0.05, 0.8, 0.1, 1)
		p, _, err := Pack(in, Options{Epsilon: 1.5})
		return err == nil && p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRatioImprovesWithEpsilon: smaller epsilon must not make the packing
// much worse relative to the fractional bound on wide-only instances (the
// regime the scheme optimizes).
func TestRatioReasonableOnWideInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		rects := make([]geom.Rect, 20)
		for i := range rects {
			rects[i] = geom.Rect{W: 0.34 + 0.6*rng.Float64(), H: 0.1 + 0.9*rng.Float64()}
		}
		in := geom.NewInstance(1, rects)
		p, _, err := Pack(in, Options{Epsilon: 1})
		if err != nil {
			t.Fatal(err)
		}
		optf, err := release.FractionalLowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		// Each wide rect has w > 1/3 so every configuration holds <= 2
		// items; the additive term is small. 2.5x slack keeps the test
		// robust while catching gross regressions.
		if p.Height() > 2.5*optf+2 {
			t.Fatalf("trial %d: height %g vs OPTf %g", trial, p.Height(), optf)
		}
	}
}

// TestKRCompetitiveWithNFDH: on quantized-width instances the LP-based
// packing must stay within a small factor of NFDH (the schemes trade the
// per-occurrence overflow against LP-optimal width mixing, so neither
// dominates at n=30; the asymptotic advantage is measured in E6/EK1).
func TestKRCompetitiveWithNFDH(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var krSum, nfdhSum float64
	for trial := 0; trial < 20; trial++ {
		rects := make([]geom.Rect, 30)
		for i := range rects {
			w := []float64{0.26, 0.34, 0.51}[rng.Intn(3)]
			rects[i] = geom.Rect{W: w, H: 0.1 + 0.9*rng.Float64()}
		}
		in := geom.NewInstance(1, rects)
		p, _, err := Pack(in, Options{Epsilon: 0.75})
		if err != nil {
			t.Fatal(err)
		}
		res, err := packing.NFDH(1, rects)
		if err != nil {
			t.Fatal(err)
		}
		krSum += p.Height()
		nfdhSum += res.Height
	}
	if krSum > 1.25*nfdhSum {
		t.Fatalf("KR total %g much worse than NFDH total %g", krSum, nfdhSum)
	}
}

func TestReportPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := workload.Uniform(rng, 15, 0.2, 0.8, 0.1, 1)
	_, rep, err := Pack(in, Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wide+rep.Narrow != 15 || rep.Groups < 1 || rep.Threshold <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Wide > 0 && (rep.Configs == 0 || rep.FractionalHeight <= 0) {
		t.Fatalf("wide stats missing: %+v", rep)
	}
}

// TestPackNarrowRemainderClearsAreaShelves builds the case where narrow
// shelves inside a reserved area rise above the wide rectangles' top: the
// LP reserved [0, 10) but the area's columns (the wide rectangles) end at
// 2. Twenty of the 25 narrow rectangles fill the area's leftover width up
// to 10, and the full-width remainder must be stacked above them, not
// from the wide top across them.
func TestPackNarrowRemainderClearsAreaShelves(t *testing.T) {
	rects := make([]geom.Rect, 25)
	ids := make([]int, len(rects))
	for i := range rects {
		rects[i] = geom.Rect{W: 0.2, H: 1}
		ids[i] = i
	}
	in := geom.NewInstance(1, rects)
	p := geom.NewPacking(in)
	top := 2.0
	areas := []release.ReservedArea{{Y0: 0, Y1: 10, UsedWidth: 0.5}}
	if err := packNarrow(in, p, ids, areas, &top); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if top != 11 {
		t.Fatalf("top %g, want 11", top)
	}
}
