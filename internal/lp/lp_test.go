package lp_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"strippack/internal/lp"
	"strippack/internal/lp/lptest"
)

func solveBoth(t *testing.T, p *lptest.Problem) (*lp.Solution, *lp.Solution) {
	t.Helper()
	f, err := lptest.Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	e, err := lptest.SolveExact(p)
	if err != nil {
		t.Fatalf("SolveExact: %v", err)
	}
	return f, e
}

func TestSolveSimpleLE(t *testing.T) {
	// min -x1 - 2x2  s.t. x1 + x2 <= 4, x2 <= 3.  Optimum (1,3) -> -7.
	p := lptest.NewProblem(2)
	p.Objective = []float64{-1, -2}
	if err := p.AddConstraint([]float64{1, 1}, lp.LE, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint([]float64{0, 1}, lp.LE, 3); err != nil {
		t.Fatal(err)
	}
	f, e := solveBoth(t, p)
	for _, s := range []*lp.Solution{f, e} {
		if s.Status != lp.Optimal {
			t.Fatalf("status %v", s.Status)
		}
		if math.Abs(s.Objective-(-7)) > 1e-6 {
			t.Fatalf("objective %g, want -7 (x=%v)", s.Objective, s.X)
		}
	}
}

func TestSolveWithGE(t *testing.T) {
	// min x1 + x2  s.t. x1 + 2x2 >= 4, 3x1 + x2 >= 6. Optimum at
	// intersection (8/5, 6/5), objective 14/5.
	p := lptest.NewProblem(2)
	p.Objective = []float64{1, 1}
	_ = p.AddConstraint([]float64{1, 2}, lp.GE, 4)
	_ = p.AddConstraint([]float64{3, 1}, lp.GE, 6)
	f, e := solveBoth(t, p)
	for _, s := range []*lp.Solution{f, e} {
		if s.Status != lp.Optimal || math.Abs(s.Objective-2.8) > 1e-6 {
			t.Fatalf("got %v obj=%g, want 2.8", s.Status, s.Objective)
		}
	}
}

func TestSolveWithEQ(t *testing.T) {
	// min 2x1 + 3x2  s.t. x1 + x2 == 10, x1 <= 6. Optimum x1=6,x2=4 -> 24.
	p := lptest.NewProblem(2)
	p.Objective = []float64{2, 3}
	_ = p.AddConstraint([]float64{1, 1}, lp.EQ, 10)
	_ = p.AddConstraint([]float64{1, 0}, lp.LE, 6)
	f, e := solveBoth(t, p)
	for _, s := range []*lp.Solution{f, e} {
		if math.Abs(s.Objective-24) > 1e-6 {
			t.Fatalf("objective %g, want 24 (x=%v)", s.Objective, s.X)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := lptest.NewProblem(1)
	p.Objective = []float64{1}
	_ = p.AddConstraint([]float64{1}, lp.GE, 5)
	_ = p.AddConstraint([]float64{1}, lp.LE, 3)
	f, e := solveBoth(t, p)
	if f.Status != lp.Infeasible || e.Status != lp.Infeasible {
		t.Fatalf("status float=%v exact=%v, want infeasible", f.Status, e.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := lptest.NewProblem(1)
	p.Objective = []float64{-1}
	_ = p.AddConstraint([]float64{1}, lp.GE, 0)
	f, e := solveBoth(t, p)
	if f.Status != lp.Unbounded || e.Status != lp.Unbounded {
		t.Fatalf("status float=%v exact=%v, want unbounded", f.Status, e.Status)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// -x1 <= -2  means x1 >= 2; min x1 -> 2.
	p := lptest.NewProblem(1)
	p.Objective = []float64{1}
	_ = p.AddConstraint([]float64{-1}, lp.LE, -2)
	f, e := solveBoth(t, p)
	for _, s := range []*lp.Solution{f, e} {
		if s.Status != lp.Optimal || math.Abs(s.Objective-2) > 1e-6 {
			t.Fatalf("got %v obj=%g, want 2", s.Status, s.Objective)
		}
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	p := lptest.NewProblem(2)
	p.Objective = []float64{-1, -1}
	_ = p.AddConstraint([]float64{1, 0}, lp.LE, 1)
	_ = p.AddConstraint([]float64{1, 0}, lp.LE, 1) // duplicate (degenerate)
	_ = p.AddConstraint([]float64{0, 1}, lp.LE, 1)
	f, e := solveBoth(t, p)
	for _, s := range []*lp.Solution{f, e} {
		if math.Abs(s.Objective-(-2)) > 1e-6 {
			t.Fatalf("objective %g, want -2", s.Objective)
		}
	}
}

func TestSolveRedundantEquality(t *testing.T) {
	// Two identical equalities produce a redundant artificial row that must
	// be dropped in phase 1.
	p := lptest.NewProblem(2)
	p.Objective = []float64{1, 2}
	_ = p.AddConstraint([]float64{1, 1}, lp.EQ, 3)
	_ = p.AddConstraint([]float64{1, 1}, lp.EQ, 3)
	f, e := solveBoth(t, p)
	for _, s := range []*lp.Solution{f, e} {
		if s.Status != lp.Optimal || math.Abs(s.Objective-3) > 1e-6 {
			t.Fatalf("got %v obj=%g, want 3", s.Status, s.Objective)
		}
	}
}

func TestSolveZeroRows(t *testing.T) {
	p := lptest.NewProblem(2)
	p.Objective = []float64{1, 1}
	s, err := lptest.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal || s.Objective != 0 {
		t.Fatalf("empty LP: %v obj=%g", s.Status, s.Objective)
	}
}

func TestSolveRejectsBadShapes(t *testing.T) {
	p := lptest.NewProblem(2)
	if err := p.AddConstraint([]float64{1}, lp.LE, 1); err == nil {
		t.Error("short constraint accepted")
	}
	p.Objective = []float64{1}
	if _, err := lptest.Solve(p); err == nil {
		t.Error("short objective accepted")
	}
	if _, err := lptest.SolveExact(p); err == nil {
		t.Error("short objective accepted by exact solver")
	}
}

func TestBasicSolutionSupportBound(t *testing.T) {
	// A basic optimum has at most m = #constraints positive structural
	// variables — the property Lemma 3.3 of the paper relies on.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		p := lptest.NewProblem(n)
		for j := 0; j < n; j++ {
			p.Objective[j] = rng.Float64()
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64()
			}
			_ = p.AddConstraint(row, lp.GE, 1+rng.Float64())
		}
		s, err := lptest.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != lp.Optimal {
			t.Fatalf("trial %d: %v", trial, s.Status)
		}
		if s.BasicCount > m {
			t.Fatalf("trial %d: %d positive vars > %d rows", trial, s.BasicCount, m)
		}
	}
}

// TestFloatMatchesExact cross-validates the float64 solver against the
// exact rational solver on random small LPs.
func TestFloatMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		p := lptest.NewProblem(n)
		for j := 0; j < n; j++ {
			p.Objective[j] = math.Round(10*(rng.Float64()*2-0.5)) / 10
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = math.Round(10*rng.Float64()) / 10
			}
			ops := []lp.Relation{lp.LE, lp.GE, lp.EQ}
			_ = p.AddConstraint(row, ops[rng.Intn(3)], math.Round(10*rng.Float64())/10)
		}
		f, err := lptest.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e, err := lptest.SolveExact(p)
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		if f.Status != e.Status {
			t.Fatalf("trial %d: status float=%v exact=%v", trial, f.Status, e.Status)
		}
		if f.Status == lp.Optimal && math.Abs(f.Objective-e.Objective) > 1e-5 {
			t.Fatalf("trial %d: objective float=%g exact=%g", trial, f.Objective, e.Objective)
		}
	}
}

// TestSolutionFeasibility: optimal solutions satisfy every constraint.
func TestSolutionFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		p := lptest.NewProblem(n)
		for j := 0; j < n; j++ {
			p.Objective[j] = rng.Float64()
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64()
			}
			_ = p.AddConstraint(row, lp.GE, rng.Float64())
		}
		s, err := lptest.Solve(p)
		if err != nil || s.Status != lp.Optimal {
			return false
		}
		for _, c := range p.Constraints {
			dot := 0.0
			for j, v := range c.Coeffs {
				dot += v * s.X[j]
			}
			switch c.Op {
			case lp.LE:
				if dot > c.RHS+1e-6 {
					return false
				}
			case lp.GE:
				if dot < c.RHS-1e-6 {
					return false
				}
			case lp.EQ:
				if math.Abs(dot-c.RHS) > 1e-6 {
					return false
				}
			}
		}
		for _, x := range s.X {
			if x < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	if lp.Optimal.String() != "optimal" || lp.Infeasible.String() != "infeasible" || lp.Unbounded.String() != "unbounded" {
		t.Fatal("Status.String wrong")
	}
	if lp.Status(9).String() != "?" {
		t.Fatal("unknown status")
	}
}
