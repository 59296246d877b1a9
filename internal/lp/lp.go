// Package lp implements primal simplex solvers for linear programs in the
// form
//
//	minimize  c·x
//	subject to  A_i·x (<=|>=|=) b_i,   x >= 0.
//
// It is used by the release-time APTAS to solve the configuration LP of
// Lemma 3.3. All solvers return a *basic* optimal solution, which is
// exactly what the APTAS needs: a basic optimum has at most as many nonzero
// variables as constraints, giving the (W+1)(R+1) bound on distinct
// configuration occurrences.
//
// Three solvers:
//
//   - Solve: the dense two-phase tableau simplex over a Problem. Simple,
//     O(rows·cols) memory.
//   - SolveExact: the same semantics in exact big.Rat arithmetic, for
//     cross-validation on small programs.
//   - Revised: a revised simplex over a sparse column-major matrix, built
//     column by column; only the m×m basis inverse is kept dense, so
//     memory is O(nnz + m²) instead of O(rows·cols). It accepts new
//     columns between Solve calls and re-optimizes from the current basis,
//     which is what the configuration-LP column generation in
//     internal/core/release needs.
//
// Sparse layout: a Constraint added via AddSparseConstraint stores strictly
// ascending column indices Idx with matching values Val and a nil Coeffs;
// the dense solvers scatter such rows on demand.
//
// Dual extraction: Revised.Solve reports the simplex multipliers
// y = c_B·B⁻¹ on Solution.Duals, one entry per constraint in insertion
// order, with signs relative to the constraints as given: the reduced cost
// of any column a with cost c is exactly c − y·a. At an optimum y is
// feasible for the dual (y_i >= 0 for GE rows, <= 0 for LE rows), which is
// what Gilmore–Gomory pricing consumes.
//
// Starting basis: Revised.SetStartBasis hands the first Revised solve a
// basis of structural columns and row logicals (slack on LE rows, surplus
// on GE rows), such as a crash basis a caller can write down for its own
// program (Bixby, "Implementing the Simplex Method: The Initial Basis",
// ORSA J. Computing 4(3), 1992). The solve factorizes it once and, when it
// is nonsingular and primal feasible, skips phase 1; otherwise it falls
// back to the all-artificial start. The hint changes only the simplex
// path: the status and the optimal value are those of the unhinted solve.
//
// The float64 solvers use Bland's rule (no cycling) with an absolute
// tolerance.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is a constraint sense.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // A·x <= b
	GE                 // A·x >= b
	EQ                 // A·x == b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Constraint is one row of the program, stored either dense (Coeffs) or
// sparse (Idx/Val with Coeffs nil). Every solver accepts both forms.
type Constraint struct {
	Coeffs []float64
	// Idx/Val is the sparse form: strictly ascending column indices and
	// their coefficients. Only consulted when Coeffs is nil.
	Idx []int32
	Val []float64
	Op  Relation
	RHS float64
}

// scatter writes the row's coefficients into dst (length >= NumVars), which
// must be zeroed by the caller beforehand.
func (c *Constraint) scatter(dst []float64) {
	if c.Coeffs != nil {
		copy(dst, c.Coeffs)
		return
	}
	for k, j := range c.Idx {
		dst[j] = c.Val[k]
	}
}

// forEach visits the nonzero coefficients of the row in ascending column
// order.
func (c *Constraint) forEach(fn func(j int, v float64)) {
	if c.Coeffs != nil {
		for j, v := range c.Coeffs {
			if v != 0 {
				fn(j, v)
			}
		}
		return
	}
	for k, j := range c.Idx {
		fn(int(j), c.Val[k])
	}
}

// Problem is a linear program over NumVars non-negative variables.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; minimized
	Constraints []Constraint
}

// NewProblem allocates a program with a zero objective.
func NewProblem(numVars int) *Problem {
	return &Problem{NumVars: numVars, Objective: make([]float64, numVars)}
}

// AddSparseConstraint appends a row given as (index, value) pairs. Indices
// must be strictly ascending and within [0, NumVars); both slices are
// copied. The row is stored sparse: the dense solvers scatter it on demand
// and the revised solver consumes it directly.
func (p *Problem) AddSparseConstraint(idx []int32, val []float64, op Relation, rhs float64) error {
	if len(idx) != len(val) {
		return fmt.Errorf("lp: sparse constraint has %d indices for %d values", len(idx), len(val))
	}
	for k, j := range idx {
		if j < 0 || int(j) >= p.NumVars {
			return fmt.Errorf("lp: sparse index %d out of range [0,%d)", j, p.NumVars)
		}
		if k > 0 && j <= idx[k-1] {
			return fmt.Errorf("lp: sparse indices not strictly ascending at position %d", k)
		}
	}
	c := Constraint{
		Idx: append([]int32(nil), idx...),
		Val: append([]float64(nil), val...),
		Op:  op,
		RHS: rhs,
	}
	p.Constraints = append(p.Constraints, c)
	return nil
}

// Status reports the outcome of Solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "?"
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // primal values, length NumVars (nil unless Optimal)
	Objective float64   // c·X (0 unless Optimal)
	// Duals holds the simplex multipliers y = c_B·B⁻¹ per constraint, in
	// insertion order, such that the reduced cost of any column a with cost
	// c is c − y·a. Populated by Revised.Solve only (nil from the dense
	// solvers, and nil unless Optimal).
	Duals []float64
	// BasicCount is the number of structural variables that are strictly
	// positive in the returned basic solution.
	BasicCount int
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// tol is the feasibility/optimality tolerance of the float64 solver.
const tol = 1e-9

// ErrNumerical reports that the solver lost too much precision to certify a
// result.
var ErrNumerical = errors.New("lp: numerical failure")

// maxPivots bounds total pivots as a safety net; Bland's rule precludes
// cycling so this only guards against pathological degeneracy blowup.
func maxPivots(rows, cols int) int {
	p := 2000 + 50*(rows+cols)
	return p
}

// Solve runs two-phase simplex and returns a basic optimal solution, or a
// Solution with Status Infeasible/Unbounded.
func Solve(p *Problem) (*Solution, error) {
	if len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d entries, want %d", len(p.Objective), p.NumVars)
	}
	m := len(p.Constraints)
	n := p.NumVars

	// Column layout: [structural n][slack/surplus s][artificial a].
	nSlack := 0
	for _, c := range p.Constraints {
		if c.Op != EQ {
			nSlack++
		}
	}
	// Artificials are added per row lazily below; at most one per row.
	total := n + nSlack + m
	cols := total + 1 // + RHS column
	t := make([][]float64, m)
	basis := make([]int, m)
	artCol := n + nSlack // first artificial column
	nArt := 0
	slackIdx := n
	for i, c := range p.Constraints {
		row := make([]float64, cols)
		c.scatter(row)
		rhs := c.RHS
		op := c.Op
		if rhs < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE:
			row[slackIdx] = 1
			basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artCol+nArt] = 1
			basis[i] = artCol + nArt
			nArt++
		case EQ:
			row[artCol+nArt] = 1
			basis[i] = artCol + nArt
			nArt++
		}
		row[cols-1] = rhs
		t[i] = row
	}
	usedCols := n + nSlack + nArt
	sol := &Solution{}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		obj := make([]float64, usedCols)
		for j := artCol; j < artCol+nArt; j++ {
			obj[j] = 1
		}
		status, err := simplex(t, basis, obj, usedCols, sol)
		if err != nil {
			return nil, err
		}
		if status == Unbounded {
			return nil, fmt.Errorf("%w: phase 1 unbounded", ErrNumerical)
		}
		// Phase-1 optimum must be ~0 for feasibility.
		var p1 float64
		for i, b := range basis {
			if b >= artCol {
				p1 += t[i][len(t[i])-1]
			}
		}
		if p1 > 1e-7 {
			sol.Status = Infeasible
			return sol, nil
		}
		// Drive any basic artificial (at value 0) out of the basis, or drop
		// its (redundant) row.
		for i := 0; i < len(t); i++ {
			if basis[i] < artCol {
				continue
			}
			pivoted := false
			for j := 0; j < artCol; j++ {
				if math.Abs(t[i][j]) > tol {
					pivot(t, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: remove it.
				t = append(t[:i], t[i+1:]...)
				basis = append(basis[:i], basis[i+1:]...)
				i--
			}
		}
		// Zero out artificial columns so they can never re-enter.
		for i := range t {
			for j := artCol; j < artCol+nArt; j++ {
				t[i][j] = 0
			}
		}
		usedCols = artCol
	}

	// Phase 2: minimize the real objective.
	obj := make([]float64, usedCols)
	copy(obj, p.Objective)
	status, err := simplex(t, basis, obj, usedCols, sol)
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		sol.Status = Unbounded
		return sol, nil
	}
	sol.Status = Optimal
	sol.X = make([]float64, n)
	for i, b := range basis {
		if b < n {
			v := t[i][len(t[i])-1]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			sol.X[b] = v
		}
	}
	for j := 0; j < n; j++ {
		if sol.X[j] > tol {
			sol.BasicCount++
		}
		sol.Objective += p.Objective[j] * sol.X[j]
	}
	return sol, nil
}

// simplex runs primal simplex on the tableau with the given objective over
// columns [0, usedCols), using Bland's rule. The tableau rows are already a
// basic feasible solution identified by basis.
func simplex(t [][]float64, basis []int, obj []float64, usedCols int, sol *Solution) (Status, error) {
	m := len(t)
	if m == 0 {
		return Optimal, nil
	}
	cols := len(t[0])
	// Reduced costs: z_j - c_j computed from scratch each iteration would be
	// O(m) per column; instead maintain the objective row explicitly.
	z := make([]float64, cols)
	copy(z, obj)
	// Make reduced costs consistent with current basis: subtract basic rows.
	for i, b := range basis {
		cb := 0.0
		if b < len(obj) {
			cb = obj[b]
		}
		if cb != 0 {
			for j := 0; j < cols; j++ {
				z[j] -= cb * t[i][j]
			}
		}
	}
	limit := maxPivots(m, usedCols)
	for iter := 0; ; iter++ {
		if iter > limit {
			return 0, fmt.Errorf("%w: pivot limit %d exceeded", ErrNumerical, limit)
		}
		// Bland: entering column = smallest index with negative reduced cost.
		enter := -1
		for j := 0; j < usedCols; j++ {
			if z[j] < -tol {
				enter = j
				break
			}
		}
		if enter == -1 {
			return Optimal, nil
		}
		// Ratio test, Bland tie-break on smallest basis index.
		leave := -1
		var best float64
		for i := 0; i < m; i++ {
			a := t[i][enter]
			if a <= tol {
				continue
			}
			ratio := t[i][cols-1] / a
			if leave == -1 || ratio < best-tol ||
				(ratio < best+tol && basis[i] < basis[leave]) {
				leave = i
				best = ratio
			}
		}
		if leave == -1 {
			return Unbounded, nil
		}
		pivot(t, basis, leave, enter)
		// Update objective row.
		factor := z[enter]
		if factor != 0 {
			for j := 0; j < cols; j++ {
				z[j] -= factor * t[leave][j]
			}
		}
		z[enter] = 0
		sol.Iterations++
	}
}

// pivot performs a Gauss-Jordan pivot at (row, col) and updates the basis.
func pivot(t [][]float64, basis []int, row, col int) {
	cols := len(t[row])
	p := t[row][col]
	for j := 0; j < cols; j++ {
		t[row][j] /= p
	}
	t[row][col] = 1
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			t[i][j] -= f * t[row][j]
		}
		t[i][col] = 0
	}
	basis[row] = col
}
