package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// SolveSparse solves a Problem with the revised simplex: the constraint
// matrix is transposed once into sparse columns and never densified, and
// the optimal duals are reported on Solution.Duals. It is how the tests
// check Revised against the dense and exact solvers on the same program
// (same Bland pivoting, same tolerance).
func SolveSparse(p *Problem) (*Solution, error) {
	if len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d entries, want %d", len(p.Objective), p.NumVars)
	}
	m := len(p.Constraints)
	ops := make([]Relation, m)
	rhs := make([]float64, m)
	for i, c := range p.Constraints {
		ops[i] = c.Op
		rhs[i] = c.RHS
	}
	r, err := NewRevised(ops, rhs)
	if err != nil {
		return nil, err
	}
	colIdx := make([][]int32, p.NumVars)
	colVal := make([][]float64, p.NumVars)
	for i := range p.Constraints {
		row := i
		p.Constraints[i].forEach(func(j int, v float64) {
			colIdx[j] = append(colIdx[j], int32(row))
			colVal[j] = append(colVal[j], v)
		})
	}
	for j := 0; j < p.NumVars; j++ {
		if _, err := r.AddColumn(p.Objective[j], colIdx[j], colVal[j]); err != nil {
			return nil, err
		}
	}
	return r.Solve()
}

// randomProblem builds a small random LP with mixed senses; when sparse is
// set, rows are added through AddSparseConstraint with ~half the entries.
func randomProblem(rng *rand.Rand, sparse bool) *Problem {
	n := 2 + rng.Intn(6)
	m := 1 + rng.Intn(5)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.Objective[j] = math.Round(10*(rng.Float64()*2-0.5)) / 10
	}
	ops := []Relation{LE, GE, EQ}
	for i := 0; i < m; i++ {
		op := ops[rng.Intn(3)]
		rhs := math.Round(10*rng.Float64()) / 10
		if sparse {
			var idx []int32
			var val []float64
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					idx = append(idx, int32(j))
					val = append(val, math.Round(10*rng.Float64())/10)
				}
			}
			if err := p.AddSparseConstraint(idx, val, op, rhs); err != nil {
				panic(err)
			}
		} else {
			row := make([]float64, n)
			for j := range row {
				row[j] = math.Round(10*rng.Float64()) / 10
			}
			if err := p.AddConstraint(row, op, rhs); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// TestSparseMatchesDense: SolveSparse agrees with the dense oracle on
// status and objective over random programs, in both storage forms.
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, trial%2 == 0)
		d, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		s, err := SolveSparse(p)
		if err != nil {
			t.Fatalf("trial %d sparse: %v", trial, err)
		}
		if d.Status != s.Status {
			t.Fatalf("trial %d: status dense=%v sparse=%v", trial, d.Status, s.Status)
		}
		if d.Status == Optimal && math.Abs(d.Objective-s.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective dense=%g sparse=%g", trial, d.Objective, s.Objective)
		}
	}
}

// TestSparseSolutionFeasibleAndBasic: SolveSparse optima satisfy every
// constraint, are non-negative, and have basic support at most the row
// count.
func TestSparseSolutionFeasibleAndBasic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, seed%2 == 0)
		s, err := SolveSparse(p)
		if err != nil || s.Status != Optimal {
			return true // infeasible/unbounded draws are fine
		}
		if s.BasicCount > len(p.Constraints) {
			return false
		}
		dense := make([]float64, p.NumVars)
		for _, c := range p.Constraints {
			for j := range dense {
				dense[j] = 0
			}
			c.scatter(dense)
			var dot float64
			for j, v := range dense {
				dot += v * s.X[j]
			}
			switch c.Op {
			case LE:
				if dot > c.RHS+1e-6 {
					return false
				}
			case GE:
				if dot < c.RHS-1e-6 {
					return false
				}
			case EQ:
				if math.Abs(dot-c.RHS) > 1e-6 {
					return false
				}
			}
		}
		for _, x := range s.X {
			if x < -1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseDuals: at an optimum the reported multipliers are dual
// feasible (sign-correct per sense, non-negative reduced cost on every
// column) and satisfy strong duality y·b = c·x.
func TestSparseDuals(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	checked := 0
	for trial := 0; trial < 300 && checked < 100; trial++ {
		p := randomProblem(rng, trial%2 == 0)
		s, err := SolveSparse(p)
		if err != nil || s.Status != Optimal {
			continue
		}
		checked++
		if len(s.Duals) != len(p.Constraints) {
			t.Fatalf("trial %d: %d duals for %d rows", trial, len(s.Duals), len(p.Constraints))
		}
		var yb float64
		for i, c := range p.Constraints {
			y := s.Duals[i]
			yb += y * c.RHS
			switch c.Op {
			case LE:
				if y > 1e-6 {
					t.Fatalf("trial %d row %d: LE dual %g > 0", trial, i, y)
				}
			case GE:
				if y < -1e-6 {
					t.Fatalf("trial %d row %d: GE dual %g < 0", trial, i, y)
				}
			}
		}
		if math.Abs(yb-s.Objective) > 1e-5 {
			t.Fatalf("trial %d: strong duality violated: y·b=%g obj=%g", trial, yb, s.Objective)
		}
		// Reduced cost of every structural column is >= 0 at the optimum.
		dense := make([]float64, p.NumVars)
		rc := append([]float64(nil), p.Objective...)
		for i, c := range p.Constraints {
			for j := range dense {
				dense[j] = 0
			}
			c.scatter(dense)
			for j, v := range dense {
				rc[j] -= s.Duals[i] * v
			}
		}
		for j, v := range rc {
			if v < -1e-6 {
				t.Fatalf("trial %d: column %d has negative reduced cost %g at optimum", trial, j, v)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d optimal draws; generator broken?", checked)
	}
}

// TestSparseOnDenseSuite replays the dense solver's pinned scenarios
// through SolveSparse.
func TestSparseOnDenseSuite(t *testing.T) {
	cases := []struct {
		build func() *Problem
		want  float64
	}{
		{func() *Problem { // min -x1-2x2, x1+x2<=4, x2<=3
			p := NewProblem(2)
			p.Objective = []float64{-1, -2}
			_ = p.AddConstraint([]float64{1, 1}, LE, 4)
			_ = p.AddConstraint([]float64{0, 1}, LE, 3)
			return p
		}, -7},
		{func() *Problem { // GE pair
			p := NewProblem(2)
			p.Objective = []float64{1, 1}
			_ = p.AddConstraint([]float64{1, 2}, GE, 4)
			_ = p.AddConstraint([]float64{3, 1}, GE, 6)
			return p
		}, 2.8},
		{func() *Problem { // EQ + LE
			p := NewProblem(2)
			p.Objective = []float64{2, 3}
			_ = p.AddConstraint([]float64{1, 1}, EQ, 10)
			_ = p.AddConstraint([]float64{1, 0}, LE, 6)
			return p
		}, 24},
		{func() *Problem { // negative RHS normalization
			p := NewProblem(1)
			p.Objective = []float64{1}
			_ = p.AddConstraint([]float64{-1}, LE, -2)
			return p
		}, 2},
		{func() *Problem { // redundant equality row
			p := NewProblem(2)
			p.Objective = []float64{1, 2}
			_ = p.AddConstraint([]float64{1, 1}, EQ, 3)
			_ = p.AddConstraint([]float64{1, 1}, EQ, 3)
			return p
		}, 3},
		{func() *Problem { // Beale cycling example
			p := NewProblem(4)
			p.Objective = []float64{-0.75, 150, -0.02, 6}
			_ = p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
			_ = p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
			_ = p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
			return p
		}, -0.05},
	}
	for i, tc := range cases {
		s, err := SolveSparse(tc.build())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if s.Status != Optimal || math.Abs(s.Objective-tc.want) > 1e-6 {
			t.Fatalf("case %d: %v obj=%g, want %g", i, s.Status, s.Objective, tc.want)
		}
	}
}

func TestSparseInfeasibleAndUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.Objective = []float64{1}
	_ = p.AddConstraint([]float64{1}, GE, 5)
	_ = p.AddConstraint([]float64{1}, LE, 3)
	s, err := SolveSparse(p)
	if err != nil || s.Status != Infeasible {
		t.Fatalf("err=%v status=%v, want infeasible", err, s.Status)
	}
	p = NewProblem(1)
	p.Objective = []float64{-1}
	_ = p.AddConstraint([]float64{1}, GE, 0)
	s, err = SolveSparse(p)
	if err != nil || s.Status != Unbounded {
		t.Fatalf("err=%v status=%v, want unbounded", err, s.Status)
	}
}

// TestRevisedWarmStart: adding a cheaper column after an optimum and
// re-solving must improve the objective to the new optimum, without
// rebuilding the solver.
func TestRevisedWarmStart(t *testing.T) {
	// Cover demand of 3 on a single GE row; first column costs 2 per unit.
	r, err := NewRevised([]Relation{GE}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddColumn(2, []int32{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	s, err := r.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-6) > 1e-9 {
		t.Fatalf("first solve: %v obj=%g, want 6", s.Status, s.Objective)
	}
	if math.Abs(s.Duals[0]-2) > 1e-9 {
		t.Fatalf("dual %g, want 2 (marginal cost of the demand row)", s.Duals[0])
	}
	// A column covering 2 units for cost 3 prices out (rc = 3 - 2·2 < 0).
	if _, err := r.AddColumn(3, []int32{0}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	s, err = r.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-4.5) > 1e-9 {
		t.Fatalf("warm solve: %v obj=%g, want 4.5", s.Status, s.Objective)
	}
	if math.Abs(s.X[1]-1.5) > 1e-9 {
		t.Fatalf("X = %v, want the new column at 1.5", s.X)
	}
}

// TestRevisedWarmStartEquivalence: interleaving AddColumn/Solve reaches the
// same optimum as solving the full program cold, on random column sets.
func TestRevisedWarmStartEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(4)
		ops := make([]Relation, m)
		rhs := make([]float64, m)
		for i := range ops {
			ops[i] = GE
			rhs[i] = 1 + math.Round(10*rng.Float64())/10
		}
		ncols := 4 + rng.Intn(8)
		costs := make([]float64, ncols)
		colIdx := make([][]int32, ncols)
		colVal := make([][]float64, ncols)
		for j := range costs {
			costs[j] = 0.5 + rng.Float64()
			for i := 0; i < m; i++ {
				if rng.Float64() < 0.6 {
					colIdx[j] = append(colIdx[j], int32(i))
					colVal[j] = append(colVal[j], math.Round(10*rng.Float64())/10)
				}
			}
		}
		// Guarantee feasibility: one column covering every row.
		full := make([]int32, m)
		ones := make([]float64, m)
		for i := range full {
			full[i] = int32(i)
			ones[i] = 1
		}
		cold, err := NewRevised(ops, rhs)
		if err != nil {
			t.Fatal(err)
		}
		warm, _ := NewRevised(ops, rhs)
		if _, err := cold.AddColumn(5, full, ones); err != nil {
			t.Fatal(err)
		}
		_, _ = warm.AddColumn(5, full, ones)
		if _, err := warm.Solve(); err != nil {
			t.Fatalf("trial %d: warm initial solve: %v", trial, err)
		}
		for j := 0; j < ncols; j++ {
			if _, err := cold.AddColumn(costs[j], colIdx[j], colVal[j]); err != nil {
				t.Fatal(err)
			}
			_, _ = warm.AddColumn(costs[j], colIdx[j], colVal[j])
			if j%2 == 1 { // re-optimize mid-stream
				if _, err := warm.Solve(); err != nil {
					t.Fatalf("trial %d: warm solve %d: %v", trial, j, err)
				}
			}
		}
		sc, err := cold.Solve()
		if err != nil {
			t.Fatal(err)
		}
		sw, err := warm.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sc.Status != Optimal || sw.Status != Optimal {
			t.Fatalf("trial %d: status cold=%v warm=%v", trial, sc.Status, sw.Status)
		}
		if math.Abs(sc.Objective-sw.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective cold=%g warm=%g", trial, sc.Objective, sw.Objective)
		}
	}
}

func TestAddSparseConstraintValidation(t *testing.T) {
	p := NewProblem(3)
	if err := p.AddSparseConstraint([]int32{0, 2}, []float64{1}, LE, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := p.AddSparseConstraint([]int32{0, 3}, []float64{1, 1}, LE, 1); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := p.AddSparseConstraint([]int32{1, 1}, []float64{1, 1}, LE, 1); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := p.AddSparseConstraint([]int32{2, 0}, []float64{1, 1}, LE, 1); err == nil {
		t.Error("descending indices accepted")
	}
	if err := p.AddSparseConstraint([]int32{0, 2}, []float64{1, 1}, GE, 1); err != nil {
		t.Errorf("valid sparse row rejected: %v", err)
	}
}

// TestDenseSolversAcceptSparseRows: the dense oracle and the exact solver
// scatter sparse rows identically to their dense equivalents.
func TestDenseSolversAcceptSparseRows(t *testing.T) {
	sp := NewProblem(3)
	sp.Objective = []float64{1, 1, 1}
	_ = sp.AddSparseConstraint([]int32{0, 2}, []float64{1, 2}, GE, 4)
	_ = sp.AddSparseConstraint([]int32{1}, []float64{1}, GE, 1)
	de := NewProblem(3)
	de.Objective = []float64{1, 1, 1}
	_ = de.AddConstraint([]float64{1, 0, 2}, GE, 4)
	_ = de.AddConstraint([]float64{0, 1, 0}, GE, 1)
	s1, err := Solve(sp)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Solve(de)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Objective-s2.Objective) > 1e-9 {
		t.Fatalf("dense solver on sparse rows: %g vs %g", s1.Objective, s2.Objective)
	}
	e1, err := SolveExact(sp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1.Objective-s2.Objective) > 1e-9 {
		t.Fatalf("exact solver on sparse rows: %g vs %g", e1.Objective, s2.Objective)
	}
}

// batchFromProblem assembles a Problem's columns into the CSR-style batch
// form AddColumns takes.
func batchFromProblem(p *Problem) (costs []float64, starts []int32, idx []int32, val []float64) {
	colIdx := make([][]int32, p.NumVars)
	colVal := make([][]float64, p.NumVars)
	for i := range p.Constraints {
		row := i
		p.Constraints[i].forEach(func(j int, v float64) {
			colIdx[j] = append(colIdx[j], int32(row))
			colVal[j] = append(colVal[j], v)
		})
	}
	starts = append(starts, 0)
	for j := 0; j < p.NumVars; j++ {
		costs = append(costs, p.Objective[j])
		idx = append(idx, colIdx[j]...)
		val = append(val, colVal[j]...)
		starts = append(starts, int32(len(idx)))
	}
	return
}

// newRevisedFromProblem builds an empty Revised over the problem's rows.
func newRevisedFromProblem(p *Problem) *Revised {
	m := len(p.Constraints)
	ops := make([]Relation, m)
	rhs := make([]float64, m)
	for i, c := range p.Constraints {
		ops[i] = c.Op
		rhs[i] = c.RHS
	}
	r, err := NewRevised(ops, rhs)
	if err != nil {
		panic(err)
	}
	return r
}

// TestAddColumnsMatchesAddColumn: loading a program through one AddColumns
// batch is bit-identical to the AddColumn loop — same statuses, objectives,
// solutions and duals, on random programs and also when the batch lands on
// an already-initialized warm solver.
func TestAddColumnsMatchesAddColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, trial%2 == 0)
		costs, starts, idx, val := batchFromProblem(p)

		single := newRevisedFromProblem(p)
		for j := 0; j < p.NumVars; j++ {
			if _, err := single.AddColumn(costs[j], idx[starts[j]:starts[j+1]], val[starts[j]:starts[j+1]]); err != nil {
				t.Fatalf("trial %d: AddColumn: %v", trial, err)
			}
		}
		batch := newRevisedFromProblem(p)
		first, err := batch.AddColumns(costs, starts, idx, val)
		if err != nil {
			t.Fatalf("trial %d: AddColumns: %v", trial, err)
		}
		if first != 0 || batch.NumColumns() != p.NumVars {
			t.Fatalf("trial %d: batch placed at %d with %d columns", trial, first, batch.NumColumns())
		}
		s1, err := single.Solve()
		if err != nil {
			t.Fatalf("trial %d: single solve: %v", trial, err)
		}
		s2, err := batch.Solve()
		if err != nil {
			t.Fatalf("trial %d: batch solve: %v", trial, err)
		}
		if s1.Status != s2.Status || s1.Objective != s2.Objective {
			t.Fatalf("trial %d: single %v/%g vs batch %v/%g",
				trial, s1.Status, s1.Objective, s2.Status, s2.Objective)
		}
		if s1.Status != Optimal {
			continue
		}
		for j := range s1.X {
			if s1.X[j] != s2.X[j] {
				t.Fatalf("trial %d: X[%d] single %g vs batch %g", trial, j, s1.X[j], s2.X[j])
			}
		}
		for i := range s1.Duals {
			if s1.Duals[i] != s2.Duals[i] {
				t.Fatalf("trial %d: dual %d single %g vs batch %g", trial, i, s1.Duals[i], s2.Duals[i])
			}
		}
		// A second batch after the warm solve must keep the basis valid, like
		// AddColumn between Solve calls does.
		if _, err := batch.AddColumns(costs[:1], starts[:2], idx[:starts[1]], val[:starts[1]]); err != nil {
			t.Fatalf("trial %d: warm AddColumns: %v", trial, err)
		}
		if _, err := single.AddColumn(costs[0], idx[:starts[1]], val[:starts[1]]); err != nil {
			t.Fatalf("trial %d: warm AddColumn: %v", trial, err)
		}
		s1, err = single.Solve()
		if err != nil {
			t.Fatalf("trial %d: warm single solve: %v", trial, err)
		}
		s2, err = batch.Solve()
		if err != nil {
			t.Fatalf("trial %d: warm batch solve: %v", trial, err)
		}
		if s1.Status != s2.Status || s1.Objective != s2.Objective {
			t.Fatalf("trial %d: warm single %v/%g vs batch %v/%g",
				trial, s1.Status, s1.Objective, s2.Status, s2.Objective)
		}
	}
}

// TestAddColumnsValidation: malformed batches are rejected atomically — no
// partial commit ever becomes visible.
func TestAddColumnsValidation(t *testing.T) {
	mk := func() *Revised {
		r, err := NewRevised([]Relation{LE, GE}, []float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := []struct {
		name   string
		costs  []float64
		starts []int32
		idx    []int32
		val    []float64
	}{
		{"starts length", []float64{1}, []int32{0}, nil, nil},
		{"starts span", []float64{1}, []int32{0, 2}, []int32{0}, []float64{1}},
		{"idx/val length", []float64{1}, []int32{0, 1}, []int32{0}, []float64{1, 2}},
		{"row out of range", []float64{1, 1}, []int32{0, 1, 2}, []int32{0, 2}, []float64{1, 1}},
		{"not ascending", []float64{1, 1}, []int32{0, 2, 4}, []int32{0, 1, 1, 1}, []float64{1, 1, 1, 1}},
		{"descending starts", []float64{1, 1}, []int32{0, 2, 1}, []int32{0, 1}, []float64{1, 1}},
	}
	for _, tc := range cases {
		r := mk()
		if _, err := r.AddColumn(0.5, []int32{0}, []float64{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddColumns(tc.costs, tc.starts, tc.idx, tc.val); err == nil {
			t.Fatalf("%s: batch accepted", tc.name)
		}
		if r.NumColumns() != 1 {
			t.Fatalf("%s: partial commit left %d columns", tc.name, r.NumColumns())
		}
		// The solver still works after the rejected batch.
		if _, err := r.Solve(); err != nil {
			t.Fatalf("%s: solve after rejected batch: %v", tc.name, err)
		}
	}
}
