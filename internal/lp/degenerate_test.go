package lp_test

import (
	"math"
	"testing"

	"strippack/internal/lp"
	"strippack/internal/lp/lptest"
)

// TestBealeCycling: the classic Beale example that cycles under Dantzig's
// rule; Bland's rule must terminate at the optimum -0.05.
func TestBealeCycling(t *testing.T) {
	// min -0.75 x4 + 150 x5 - 0.02 x6 + 6 x7
	// s.t. 0.25 x4 - 60 x5 - 0.04 x6 + 9 x7 <= 0
	//      0.5  x4 - 90 x5 - 0.02 x6 + 3 x7 <= 0
	//      x6 <= 1
	p := lptest.NewProblem(4)
	p.Objective = []float64{-0.75, 150, -0.02, 6}
	_ = p.AddConstraint([]float64{0.25, -60, -0.04, 9}, lp.LE, 0)
	_ = p.AddConstraint([]float64{0.5, -90, -0.02, 3}, lp.LE, 0)
	_ = p.AddConstraint([]float64{0, 0, 1, 0}, lp.LE, 1)
	s, err := lptest.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if math.Abs(s.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective %g, want -0.05", s.Objective)
	}
	e, err := lptest.SolveExact(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Objective-(-0.05)) > 1e-9 {
		t.Fatalf("exact objective %g, want -0.05", e.Objective)
	}
}

// TestKleeMintyCube: the n=5 Klee-Minty cube is adversarial for many pivot
// rules; the solver must still terminate within its pivot budget and find
// the optimum 2^5 - ... (max formulation converted to min).
func TestKleeMintyCube(t *testing.T) {
	n := 5
	p := lptest.NewProblem(n)
	// max sum 2^{n-j} x_j  => min -(...)
	for j := 0; j < n; j++ {
		p.Objective[j] = -math.Pow(2, float64(n-1-j))
	}
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := 0; j < i; j++ {
			row[j] = math.Pow(2, float64(i-j+1))
		}
		row[i] = 1
		_ = p.AddConstraint(row, lp.LE, math.Pow(5, float64(i+1)))
	}
	s, err := lptest.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("status %v", s.Status)
	}
	// Known optimum: x_n = 5^n, objective -(5^n).
	if math.Abs(s.Objective+math.Pow(5, float64(n))) > 1e-4 {
		t.Fatalf("objective %g, want %g", s.Objective, -math.Pow(5, float64(n)))
	}
}

func TestEqualityOnlyFullRank(t *testing.T) {
	// x1 + x2 = 2, x1 - x2 = 0 -> x1 = x2 = 1.
	p := lptest.NewProblem(2)
	p.Objective = []float64{1, 1}
	_ = p.AddConstraint([]float64{1, 1}, lp.EQ, 2)
	_ = p.AddConstraint([]float64{1, -1}, lp.EQ, 0)
	s, err := lptest.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal || math.Abs(s.X[0]-1) > 1e-6 || math.Abs(s.X[1]-1) > 1e-6 {
		t.Fatalf("got %v x=%v", s.Status, s.X)
	}
}

func TestInfeasibleEqualities(t *testing.T) {
	p := lptest.NewProblem(1)
	p.Objective = []float64{1}
	_ = p.AddConstraint([]float64{1}, lp.EQ, 1)
	_ = p.AddConstraint([]float64{1}, lp.EQ, 2)
	s, err := lptest.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestZeroObjectiveFeasibilityProblem(t *testing.T) {
	// Pure feasibility: any point in the simplex.
	p := lptest.NewProblem(3)
	_ = p.AddConstraint([]float64{1, 1, 1}, lp.EQ, 1)
	s, err := lptest.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Optimal {
		t.Fatalf("status %v", s.Status)
	}
	sum := s.X[0] + s.X[1] + s.X[2]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("sum = %g", sum)
	}
}
