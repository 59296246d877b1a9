package lp

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// startProgram is a random program with a starting basis that is feasible
// by construction: the right-hand sides are the row activities of chosen
// basic values, so the hinted basis, when nonsingular, reproduces them.
type startProgram struct {
	ops    []Relation
	rhs    []float64
	costs  []float64
	colIdx [][]int32
	colVal [][]float64
	hint   []int
}

// newStartProgram draws m rows (LE, GE or EQ), n >= m structural columns
// and a hint naming a structural column on every EQ row and on row 0, and
// otherwise a structural column or the row's logical at random. Basic
// values are drawn in [0, 2]; with negative set, one of them is drawn
// below zero instead, making the hint infeasible.
func newStartProgram(rng *rand.Rand, negative bool) *startProgram {
	m := 1 + rng.Intn(6)
	n := m + rng.Intn(6)
	p := &startProgram{
		ops:    make([]Relation, m),
		rhs:    make([]float64, m),
		costs:  make([]float64, n),
		colIdx: make([][]int32, n),
		colVal: make([][]float64, n),
		hint:   make([]int, m),
	}
	a := make([][]float64, m)
	for i := range a {
		p.ops[i] = []Relation{LE, GE, EQ}[rng.Intn(3)]
		a[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		p.costs[j] = math.Round(10*(2*rng.Float64()-0.5)) / 10
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.7 {
				v := math.Round(10*(2*rng.Float64()-0.5)) / 10
				a[i][j] = v
				p.colIdx[j] = append(p.colIdx[j], int32(i))
				p.colVal[j] = append(p.colVal[j], v)
			}
		}
	}
	perm := rng.Perm(n)
	x := make([]float64, n) // structural values; nonbasic stay 0
	s := make([]float64, m) // logical values
	basic := make([]float64, 0, m)
	for i := range p.hint {
		if i == 0 || p.ops[i] == EQ || rng.Intn(2) == 0 {
			p.hint[i] = perm[i]
		} else {
			p.hint[i] = RowLogical
		}
		basic = append(basic, 2*rng.Float64())
	}
	if negative {
		basic[rng.Intn(m)] = -0.5 - rng.Float64()
	}
	for i, c := range p.hint {
		if c == RowLogical {
			s[i] = basic[i]
		} else {
			x[c] = basic[i]
		}
	}
	for i := range p.rhs {
		for j, v := range a[i] {
			p.rhs[i] += v * x[j]
		}
		switch p.ops[i] {
		case LE:
			p.rhs[i] += s[i]
		case GE:
			p.rhs[i] -= s[i]
		}
	}
	return p
}

// solver builds a Revised over the program's rows and columns.
func (p *startProgram) solver(t *testing.T) *Revised {
	t.Helper()
	r, err := NewRevised(p.ops, p.rhs)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range p.costs {
		if _, err := r.AddColumn(c, p.colIdx[j], p.colVal[j]); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// solveHinted solves with the given hint and reports whether the first
// solve kept it (phase 1 skipped).
func solveHinted(t *testing.T, r *Revised, hint []int) (*Solution, bool) {
	t.Helper()
	if err := r.SetStartBasis(hint); err != nil {
		t.Fatalf("hint %v: %v", hint, err)
	}
	r.init() // what the first Solve does; exposes whether the hint stuck
	kept := r.feasible
	sol, err := r.Solve()
	if err != nil {
		t.Fatalf("hinted solve: %v", err)
	}
	return sol, kept
}

// sameOutcome fails unless the two solves agree on status and, when
// optimal, on the objective within 1e-9.
func sameOutcome(t *testing.T, what string, want, got *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, unhinted %v", what, got.Status, want.Status)
	}
	if want.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("%s: objective %.12g, unhinted %.12g", what, got.Objective, want.Objective)
	}
}

// TestStartBasisMatchesUnhinted: on random programs, a feasible crash
// basis, a singular one and an infeasible one each give the unhinted
// status and objective. The feasible ones are kept, the others fall back
// to phase 1, and the unhinted optimal basis handed back as a hint is kept
// and optimal at once: zero pivots.
func TestStartBasisMatchesUnhinted(t *testing.T) {
	rng := rand.New(rand.NewSource(577))
	var kept, optimalHints int
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		p := newStartProgram(rng, false)
		plain := p.solver(t)
		want, err := plain.Solve()
		if err != nil {
			t.Fatalf("trial %d: unhinted: %v", trial, err)
		}

		got, ok := solveHinted(t, p.solver(t), p.hint)
		sameOutcome(t, "feasible hint", want, got)
		if ok {
			kept++
		}

		// Singular: a copy of row 0's hinted column, named on a second row.
		if len(p.hint) > 1 {
			dup := p.solver(t)
			c := p.hint[0]
			pos, err := dup.AddColumn(p.costs[c], p.colIdx[c], p.colVal[c])
			if err != nil {
				t.Fatal(err)
			}
			twin := p.solver(t)
			if _, err := twin.AddColumn(p.costs[c], p.colIdx[c], p.colVal[c]); err != nil {
				t.Fatal(err)
			}
			twinSol, err := twin.Solve()
			if err != nil {
				t.Fatal(err)
			}
			hint := slices.Clone(p.hint)
			hint[1] = pos
			got, ok := solveHinted(t, dup, hint)
			sameOutcome(t, "singular hint", twinSol, got)
			if ok {
				t.Fatalf("trial %d: singular hint %v kept", trial, hint)
			}
		}

		// Infeasible: the same construction with one basic value negative.
		q := newStartProgram(rng, true)
		qWant, err := q.solver(t).Solve()
		if err != nil {
			t.Fatal(err)
		}
		got, ok = solveHinted(t, q.solver(t), q.hint)
		sameOutcome(t, "infeasible hint", qWant, got)
		if ok {
			t.Fatalf("trial %d: infeasible hint %v kept", trial, q.hint)
		}

		// The unhinted optimum's basis: each basic logical on its own row,
		// the basic structural columns on the remaining rows.
		if want.Status != Optimal {
			continue
		}
		hint, ok := optimalHint(plain)
		if !ok {
			continue // a redundant row kept its artificial
		}
		got, kept := solveHinted(t, p.solver(t), hint)
		sameOutcome(t, "optimal hint", want, got)
		if !kept || got.Iterations != 0 {
			t.Fatalf("trial %d: optimal hint %v kept=%v, %d pivots", trial, hint, kept, got.Iterations)
		}
		optimalHints++
	}
	t.Logf("%d of %d feasible hints kept; %d optimal hints solved in 0 pivots", kept, trials, optimalHints)
	if kept < trials/2 || optimalHints < trials/4 {
		t.Fatalf("only %d feasible and %d optimal hints of %d kept: the crash path is barely exercised",
			kept, optimalHints, trials)
	}
}

// optimalHint rewrites a solved Revised's basis as a start hint, or
// reports false when an artificial is still basic.
func optimalHint(r *Revised) ([]int, bool) {
	hint := make([]int, r.m)
	var structural []int
	for i := range hint {
		hint[i] = -2 // not yet assigned
	}
	for _, b := range r.basis {
		switch r.kinds[b] {
		case kindArtificial:
			return nil, false
		case kindStructural:
			structural = append(structural, int(r.poss[b]))
		default:
			hint[r.colIdx[r.colStart[b]]] = RowLogical
		}
	}
	for i := range hint {
		if hint[i] == -2 {
			hint[i], structural = structural[0], structural[1:]
		}
	}
	return hint, true
}

// TestStartBasisRejects: a wrong length, an out-of-range or repeated
// column, a logical on an equality row and a hint set after Solve each
// return ErrBadStartBasis and leave the solver as it was: a solver that
// saw the rejected call solves exactly like one that did not.
func TestStartBasisRejects(t *testing.T) {
	ops := []Relation{LE, GE, EQ}
	rhs := []float64{4, 1, 2}
	build := func() *Revised {
		r, err := NewRevised(ops, rhs)
		if err != nil {
			t.Fatal(err)
		}
		cols := []struct {
			cost float64
			idx  []int32
			val  []float64
		}{
			{1, []int32{0, 1, 2}, []float64{1, 1, 1}},
			{2, []int32{0, 2}, []float64{1, 2}},
			{-1, []int32{0, 1}, []float64{2, 1}},
		}
		for _, c := range cols {
			if _, err := r.AddColumn(c.cost, c.idx, c.val); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	// valid is a feasible basis (slack 1, x2 = 1, x1 = 1), so a solver
	// holding it skips phase 1 and a rejected call must not disturb it.
	valid := []int{RowLogical, 2, 1}
	kept := build()
	if err := kept.SetStartBasis(valid); err != nil {
		t.Fatal(err)
	}
	if kept.init(); !kept.feasible {
		t.Fatalf("valid hint %v not kept", valid)
	}
	bad := map[string][]int{
		"short":            {RowLogical, 1},
		"long":             {RowLogical, 2, 1, 0},
		"column too large": {RowLogical, 3, 1},
		"column negative":  {RowLogical, -2, 1},
		"repeated column":  {1, 2, 1},
		"logical on EQ":    {RowLogical, 2, RowLogical},
	}
	for name, hint := range bad {
		for _, prior := range [][]int{nil, valid} {
			want := build()
			got := build()
			if prior != nil {
				if err := want.SetStartBasis(prior); err != nil {
					t.Fatal(err)
				}
				if err := got.SetStartBasis(prior); err != nil {
					t.Fatal(err)
				}
			}
			if err := got.SetStartBasis(hint); !errors.Is(err, ErrBadStartBasis) {
				t.Fatalf("%s: err %v, want ErrBadStartBasis", name, err)
			}
			if !slices.Equal(got.start, want.start) {
				t.Fatalf("%s: stored hint %v, want %v", name, got.start, want.start)
			}
			sameSolve(t, name, want, got)
		}
	}

	// After Solve: rejected, and the next warm solve is unaffected.
	want, got := build(), build()
	sameSolve(t, "first solve", want, got)
	if err := got.SetStartBasis(valid); !errors.Is(err, ErrBadStartBasis) {
		t.Fatalf("hint after Solve: err %v, want ErrBadStartBasis", err)
	}
	for _, r := range []*Revised{want, got} {
		if _, err := r.AddColumn(0.5, []int32{1, 2}, []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	sameSolve(t, "warm solve after a late hint", want, got)
}

// sameSolve solves both and fails unless the solutions are identical.
func sameSolve(t *testing.T, what string, a, b *Revised) {
	t.Helper()
	sa, err := a.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sa.Status != sb.Status || sa.Objective != sb.Objective || sa.Iterations != sb.Iterations ||
		!slices.Equal(sa.X, sb.X) || !slices.Equal(sa.Duals, sb.Duals) {
		t.Fatalf("%s: %+v vs %+v", what, sb, sa)
	}
}
