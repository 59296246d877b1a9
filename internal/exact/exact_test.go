package exact

import (
	"math"
	"math/rand"
	"testing"

	"strippack/internal/geom"
	"strippack/internal/packing"
)

func TestSolveSingle(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 2}})
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || math.Abs(res.Height-2) > 1e-9 {
		t.Fatalf("got %g proven=%v, want 2", res.Height, res.Proven)
	}
}

func TestSolveTwoSideBySide(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}, {W: 0.5, H: 1}})
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Height-1) > 1e-9 {
		t.Fatalf("OPT = %g, want 1", res.Height)
	}
}

func TestSolvePerfectSquare(t *testing.T) {
	// Four 0.5x0.5 squares tile a 1x1 region.
	rects := make([]geom.Rect, 4)
	for i := range rects {
		rects[i] = geom.Rect{W: 0.5, H: 0.5}
	}
	in := geom.NewInstance(1, rects)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Height-1) > 1e-9 {
		t.Fatalf("OPT = %g, want 1", res.Height)
	}
	if err := res.Packing.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSolveNontrivialInterlock(t *testing.T) {
	// A 0.6-wide and two 0.4-wide rects: the 0.4s stack next to the 0.6.
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.6, H: 2}, {W: 0.4, H: 1}, {W: 0.4, H: 1},
	})
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Height-2) > 1e-9 {
		t.Fatalf("OPT = %g, want 2", res.Height)
	}
}

func TestSolvePrecedenceChain(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.2, H: 1}, {W: 0.2, H: 1}, {W: 0.2, H: 1},
	})
	in.AddEdge(0, 1)
	in.AddEdge(1, 2)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Height-3) > 1e-9 {
		t.Fatalf("OPT = %g, want 3 (chain)", res.Height)
	}
}

func TestSolveRelease(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 1, H: 1, Release: 2},
		{W: 1, H: 1},
	})
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Height-3) > 1e-9 {
		t.Fatalf("OPT = %g, want 3", res.Height)
	}
}

func TestSolveRejectsTooLarge(t *testing.T) {
	rects := make([]geom.Rect, 12)
	for i := range rects {
		rects[i] = geom.Rect{W: 0.5, H: 1}
	}
	in := geom.NewInstance(1, rects)
	if _, err := Solve(in, Options{}); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestSolveRejectsCycle(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}, {W: 0.5, H: 1}})
	in.AddEdge(0, 1)
	in.AddEdge(1, 0)
	if _, err := Solve(in, Options{}); err == nil {
		t.Fatal("cycle accepted")
	}
}

// maxHeight returns the tallest rectangle height, a trivial lower bound on
// OPT.
func maxHeight(in *geom.Instance) float64 {
	var h float64
	for _, r := range in.Rects {
		h = max(h, r.H)
	}
	return h
}

// TestExactNeverWorseThanHeuristics: OPT <= every heuristic height, and the
// returned packing is valid with exactly the claimed height.
func TestExactNeverWorseThanHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{
				W: math.Round((0.1+0.8*rng.Float64())*10) / 10,
				H: math.Round((0.1+0.9*rng.Float64())*10) / 10,
			}
		}
		in := geom.NewInstance(1, rects)
		res, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proven {
			t.Fatalf("trial %d: budget exhausted on n=%d", trial, n)
		}
		if err := res.Packing.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(res.Packing.Height()-res.Height) > 1e-9 {
			t.Fatalf("trial %d: height mismatch", trial)
		}
		for name, algo := range packing.Registry() {
			hr, err := algo(1, rects)
			if err != nil {
				t.Fatal(err)
			}
			if hr.Height < res.Height-1e-9 {
				t.Fatalf("trial %d: %s (%g) beat exact (%g)", trial, name, hr.Height, res.Height)
			}
		}
		if lb := math.Max(in.AreaLowerBound(), maxHeight(in)); res.Height < lb-1e-9 {
			t.Fatalf("trial %d: OPT %g below lower bound %g", trial, res.Height, lb)
		}
	}
}

// TestExactWithPrecedenceAgainstDC: exact OPT is never above the DC height.
func TestExactRespectsPrecedenceLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{
				W: math.Round((0.2+0.6*rng.Float64())*10) / 10,
				H: math.Round((0.2+0.8*rng.Float64())*10) / 10,
			}
		}
		in := geom.NewInstance(1, rects)
		for i := 0; i < n-1; i++ {
			if rng.Float64() < 0.4 {
				in.AddEdge(i, i+1+rng.Intn(n-i-1))
			}
		}
		res, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Packing.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Critical-path bound.
		var chain float64
		for _, r := range in.Rects {
			if r.H > chain {
				chain = r.H
			}
		}
		if res.Height < chain-1e-9 {
			t.Fatalf("trial %d: OPT below tallest rect", trial)
		}
	}
}

func TestNodeBudgetReported(t *testing.T) {
	// Incommensurable dimensions blow up the candidate grids so a small
	// budget cannot finish the proof, but the first descent still yields an
	// incumbent.
	rng := rand.New(rand.NewSource(99))
	rects := make([]geom.Rect, 8)
	for i := range rects {
		rects[i] = geom.Rect{W: 0.13 + 0.37*rng.Float64(), H: 0.11 + 0.53*rng.Float64()}
	}
	in := geom.NewInstance(1, rects)
	res, err := Solve(in, Options{NodeBudget: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Fatal("claimed proven despite tiny budget")
	}
	if res.Packing == nil {
		t.Fatal("no incumbent packing returned")
	}
	if err := res.Packing.Validate(); err != nil {
		t.Fatal(err)
	}
}
