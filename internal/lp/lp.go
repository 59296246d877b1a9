// Package lp implements Revised, a revised primal simplex solver for
// linear programs in the form
//
//	minimize  c·x
//	subject to  A_i·x (<=|>=|=) b_i,   x >= 0.
//
// internal/core/release solves the configuration LP of Lemma 3.3 on it,
// by column generation (SolveCG and the value-only bound paths) and over
// the full configuration enumeration (SolveEnumerated, which the
// Kenyon-Rémila packer uses). Revised returns a *basic* optimal solution,
// which is exactly what the APTAS needs: a basic optimum has at most as
// many nonzero variables as constraints, giving the (W+1)(R+1) bound on
// distinct configuration occurrences.
//
// Revised keeps the constraint matrix as sparse columns, added column by
// column; only the m×m basis inverse is dense, so memory is O(nnz + m²).
// It accepts new columns between Solve calls and re-optimizes from the
// current basis, which is what column generation needs.
//
// The reference solvers that the tests check Revised against, a dense
// tableau simplex and the same method in exact big.Rat arithmetic over a
// row-form program, live in the test-support package internal/lp/lptest.
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
// Revised uses Bland's rule (no cycling) with an absolute tolerance.
package lp

import "errors"

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

// Status reports the outcome of a solve.
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

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // primal values, one per structural column (nil unless Optimal)
	Objective float64   // c·X (0 unless Optimal)
	// Duals holds the simplex multipliers y = c_B·B⁻¹ per constraint, in
	// insertion order, such that the reduced cost of any column a with cost
	// c is c − y·a. Revised fills it when the status is Optimal; lptest's
	// reference solvers leave it nil.
	Duals []float64
	// BasicCount is the number of structural variables that are strictly
	// positive in the returned basic solution.
	BasicCount int
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// tol is the feasibility/optimality tolerance of the solver.
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
