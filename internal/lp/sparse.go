package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Column kinds inside a Revised solver.
const (
	kindStructural int8 = iota
	kindSlack
	kindSurplus
	kindArtificial
)

// Revised is a revised primal simplex over a sparse column-major matrix.
// The rows (senses and right-hand sides) are fixed at construction; columns
// arrive through AddColumn, possibly between Solve calls: after new columns
// are added, Solve re-optimizes from the current basis instead of starting
// over, which makes the solver the restricted master of a column-generation
// loop (Gilmore–Gomory style, see internal/core/release.SolveCG).
//
// Storage is compressed sparse columns in append-only arenas — column c
// occupies colIdx[colStart[c]:colStart[c+1]] / colVal[...] — so adding a
// column costs amortized zero allocations and the whole matrix lives in a
// handful of slabs. Only the m×m basis inverse is dense; the matrix is
// touched through sparse dot products (pricing) and sparse-times-dense
// products (FTRAN). Bland's rule on the fixed column order precludes
// cycling, and the inverse is refactorized from the basis columns every few
// dozen pivots to bound numerical drift.
type Revised struct {
	m    int
	rhs  []float64  // normalized to >= 0
	sign []float64  // +1/-1 applied to incoming row coefficients
	ops  []Relation // senses after sign normalization

	// CSC arenas over all columns (structural and logical).
	colStart []int32
	colIdx   []int32
	colVal   []float64
	costs    []float64
	kinds    []int8
	poss     []int32 // position among structural columns, -1 otherwise
	nStruct  int

	start    []int // SetStartBasis hint for the first Solve; nil when unset
	inited   bool
	feasible bool // phase 1 certified a feasible basis; it stays feasible
	basis    []int
	inBasis  []bool
	binv     []float64 // m×m row-major basis inverse
	xb       []float64 // basic variable values, binv·rhs
	y        []float64 // scratch: simplex multipliers
	d        []float64 // scratch: FTRAN of the entering column
	refArena []float64 // scratch: refactorization workspace
	iters    int
}

// NewRevised creates a solver for the given row senses and right-hand
// sides; both slices are copied. Rows with negative RHS are normalized by
// negation (the sense flips and incoming column coefficients are negated
// internally; reported duals are relative to the rows as given).
func NewRevised(ops []Relation, rhs []float64) (*Revised, error) {
	if len(ops) != len(rhs) {
		return nil, fmt.Errorf("lp: %d senses for %d right-hand sides", len(ops), len(rhs))
	}
	slab := make([]float64, 2*len(rhs)) // rhs | sign
	r := &Revised{
		m:        len(rhs),
		rhs:      slab[:len(rhs)],
		ops:      append([]Relation(nil), ops...),
		sign:     slab[len(rhs):],
		colStart: make([]int32, 1, 64),
	}
	copy(r.rhs, rhs)
	for i := range r.sign {
		r.sign[i] = 1
		if r.rhs[i] < 0 {
			r.sign[i] = -1
			r.rhs[i] = -r.rhs[i]
			switch r.ops[i] {
			case LE:
				r.ops[i] = GE
			case GE:
				r.ops[i] = LE
			}
		}
	}
	return r, nil
}

// Reserve pre-sizes the column arenas for an expected total column count
// (including the up to 2·rows logical columns) and sparse entry count, so
// a column-generation loop's AddColumn stream doesn't regrow them. Purely
// an allocation hint; exceeding it is fine.
func (r *Revised) Reserve(columns, entries int) {
	r.colStart = growCap(r.colStart, columns+1)
	r.costs = growCap(r.costs, columns)
	r.kinds = growCap(r.kinds, columns)
	r.poss = growCap(r.poss, columns)
	r.inBasis = growCap(r.inBasis, columns)
	r.colIdx = growCap(r.colIdx, entries)
	r.colVal = growCap(r.colVal, entries)
}

// growCap raises s's capacity to at least n without changing its length.
func growCap[T any](s []T, n int) []T {
	if d := n - len(s); d > 0 {
		return slices.Grow(s, d)
	}
	return s
}

// NumColumns returns the number of structural columns added so far.
func (r *Revised) NumColumns() int { return r.nStruct }

// NumRows returns the number of constraints.
func (r *Revised) NumRows() int { return r.m }

// Iterations returns the simplex pivots accumulated across all Solve calls.
func (r *Revised) Iterations() int { return r.iters }

// numCols is the total column count including logical columns.
func (r *Revised) numCols() int { return len(r.colStart) - 1 }

// col returns the sparse entries of column c.
func (r *Revised) col(c int) ([]int32, []float64) {
	lo, hi := r.colStart[c], r.colStart[c+1]
	return r.colIdx[lo:hi], r.colVal[lo:hi]
}

// AddColumn appends a structural column with the given cost and sparse
// entries (strictly ascending row indices); the entries are copied into the
// solver's arenas. It returns the column's position in Solution.X. Columns
// may be added between Solve calls; the current basis remains valid and the
// next Solve continues from it.
func (r *Revised) AddColumn(cost float64, idx []int32, val []float64) (int, error) {
	if len(idx) != len(val) {
		return 0, fmt.Errorf("lp: column has %d indices for %d values", len(idx), len(val))
	}
	for k, ri := range idx {
		if ri < 0 || int(ri) >= r.m {
			return 0, fmt.Errorf("lp: column row index %d out of range [0,%d)", ri, r.m)
		}
		if k > 0 && ri <= idx[k-1] {
			return 0, fmt.Errorf("lp: column row indices not strictly ascending at position %d", k)
		}
	}
	for k, ri := range idx {
		r.colIdx = append(r.colIdx, ri)
		r.colVal = append(r.colVal, val[k]*r.sign[ri])
	}
	pos := r.nStruct
	r.push(cost, kindStructural, int32(pos))
	r.nStruct++
	return pos, nil
}

// AddColumns appends a batch of structural columns in one pass: column k of
// the batch has cost costs[k] and sparse entries idx[starts[k]:starts[k+1]] /
// val[starts[k]:starts[k+1]] (strictly ascending row indices, like
// AddColumn). The whole batch is validated up front and the arenas grow at
// most once, so bulk-loading N pooled columns costs one capacity check
// instead of N — the seeding path of a warm-started column-generation
// master. It returns the position of the batch's first column in
// Solution.X; the batch occupies consecutive positions. On error nothing is
// committed.
func (r *Revised) AddColumns(costs []float64, starts []int32, idx []int32, val []float64) (int, error) {
	n := len(costs)
	if len(starts) != n+1 {
		return 0, fmt.Errorf("lp: %d column starts for %d costs", len(starts), n)
	}
	if starts[0] != 0 || int(starts[n]) != len(idx) {
		return 0, fmt.Errorf("lp: column starts [%d,%d] do not span %d entries", starts[0], starts[n], len(idx))
	}
	if len(idx) != len(val) {
		return 0, fmt.Errorf("lp: batch has %d indices for %d values", len(idx), len(val))
	}
	for c := 0; c < n; c++ {
		lo, hi := starts[c], starts[c+1]
		if lo > hi {
			return 0, fmt.Errorf("lp: column %d starts descend (%d > %d)", c, lo, hi)
		}
		for k := lo; k < hi; k++ {
			ri := idx[k]
			if ri < 0 || int(ri) >= r.m {
				return 0, fmt.Errorf("lp: column %d row index %d out of range [0,%d)", c, ri, r.m)
			}
			if k > lo && ri <= idx[k-1] {
				return 0, fmt.Errorf("lp: column %d row indices not strictly ascending at position %d", c, k-lo)
			}
		}
	}
	r.colIdx = growCap(r.colIdx, len(r.colIdx)+len(idx))
	r.colVal = growCap(r.colVal, len(r.colVal)+len(idx))
	r.colStart = growCap(r.colStart, len(r.colStart)+n)
	r.costs = growCap(r.costs, len(r.costs)+n)
	r.kinds = growCap(r.kinds, len(r.kinds)+n)
	r.poss = growCap(r.poss, len(r.poss)+n)
	if r.inited {
		r.inBasis = growCap(r.inBasis, len(r.inBasis)+n)
	}
	first := r.nStruct
	for c := 0; c < n; c++ {
		for k := starts[c]; k < starts[c+1]; k++ {
			ri := idx[k]
			r.colIdx = append(r.colIdx, ri)
			r.colVal = append(r.colVal, val[k]*r.sign[ri])
		}
		r.push(costs[c], kindStructural, int32(r.nStruct))
		r.nStruct++
	}
	return first, nil
}

// push finalizes the column whose entries were just appended to the arenas.
func (r *Revised) push(cost float64, kind int8, pos int32) {
	r.colStart = append(r.colStart, int32(len(r.colIdx)))
	r.costs = append(r.costs, cost)
	r.kinds = append(r.kinds, kind)
	r.poss = append(r.poss, pos)
	if r.inited {
		r.inBasis = append(r.inBasis, false)
	}
}

// addLogical appends a slack/surplus/artificial unit column on row i.
func (r *Revised) addLogical(kind int8, row int, v float64) int {
	r.colIdx = append(r.colIdx, int32(row))
	r.colVal = append(r.colVal, v)
	r.push(0, kind, -1)
	return r.numCols() - 1
}

// RowLogical names, in a SetStartBasis hint, the row's own logical column:
// the slack of an LE row or the surplus of a GE row.
const RowLogical = -1

// ErrBadStartBasis reports a starting basis SetStartBasis rejects.
var ErrBadStartBasis = errors.New("lp: invalid start basis")

// SetStartBasis gives the first Solve a starting basis to try before phase
// 1: start[i] is the structural column basic on row i (its position in
// Solution.X, as AddColumn returned it) or RowLogical. The entries must
// name distinct columns that exist already, an EQ row has no logical to
// name, and the hint must come before the first Solve; otherwise the
// error wraps ErrBadStartBasis and the solver is left unchanged. A later
// call replaces an earlier hint.
//
// Solve factorizes the hinted basis once and starts phase 2 from it when
// it is nonsingular with every basic value >= -tol. Otherwise it falls
// back to the all-artificial start and runs phase 1 as without a hint. A
// hint can therefore change the simplex path, and with it which basic
// optimum is returned, but not the status or the optimal value.
func (r *Revised) SetStartBasis(start []int) error {
	if r.inited {
		return fmt.Errorf("%w: set after Solve", ErrBadStartBasis)
	}
	if len(start) != r.m {
		return fmt.Errorf("%w: %d entries for %d rows", ErrBadStartBasis, len(start), r.m)
	}
	used := make([]bool, r.nStruct)
	for i, c := range start {
		switch {
		case c == RowLogical:
			if r.ops[i] == EQ {
				return fmt.Errorf("%w: row %d is an equality and has no logical column", ErrBadStartBasis, i)
			}
		case c < 0 || c >= r.nStruct:
			return fmt.Errorf("%w: row %d names column %d, outside [0,%d)", ErrBadStartBasis, i, c, r.nStruct)
		case used[c]:
			return fmt.Errorf("%w: column %d named twice", ErrBadStartBasis, c)
		default:
			used[c] = true
		}
	}
	r.start = append(r.start[:0], start...)
	return nil
}

// init builds the logical columns and the starting basis: the
// SetStartBasis hint when crash accepts it, else the identity basis of
// slacks on LE rows and artificials on GE/EQ rows.
func (r *Revised) init() {
	r.basis = make([]int, r.m)
	for i := 0; i < r.m; i++ {
		logical := RowLogical
		switch r.ops[i] {
		case LE:
			logical = r.addLogical(kindSlack, i, 1)
			r.basis[i] = logical
		case GE:
			logical = r.addLogical(kindSurplus, i, -1)
			r.basis[i] = r.addLogical(kindArtificial, i, 1)
		case EQ:
			r.basis[i] = r.addLogical(kindArtificial, i, 1)
		}
		if r.start != nil && r.start[i] == RowLogical {
			r.start[i] = logical
		}
	}
	if n := r.numCols(); cap(r.inBasis) >= n {
		r.inBasis = r.inBasis[:n] // keep the Reserve-d backing
		for i := range r.inBasis {
			r.inBasis[i] = false
		}
	} else {
		r.inBasis = make([]bool, n)
	}
	m := r.m
	back := make([]float64, m*m+3*m) // binv | xb | y | d in one slab
	r.binv = back[:m*m]
	r.xb = back[m*m : m*m+m]
	r.y = back[m*m+m : m*m+2*m]
	r.d = back[m*m+2*m:]
	r.inited = true
	if !r.crash() {
		for i := 0; i < m; i++ {
			r.binv[i*m+i] = 1
		}
		copy(r.xb, r.rhs)
	}
	for _, b := range r.basis {
		r.inBasis[b] = true
	}
}

// crash installs the SetStartBasis hint (its RowLogical entries resolved
// by init) and keeps it, marking phase 1 done, when it factorizes and is
// primal feasible. Otherwise it restores init's identity basis, zeroes
// binv for init to refill and reports false. The hint is consumed either
// way.
func (r *Revised) crash() bool {
	if r.start == nil {
		return false
	}
	identity := r.basis
	r.basis, r.start = r.start, nil
	if r.refactor() == nil && !slices.ContainsFunc(r.xb, func(v float64) bool { return v < -tol }) {
		r.feasible = true
		return true
	}
	r.basis = identity
	clear(r.binv)
	return false
}

// costOf returns the objective coefficient of column ci under the phase-1
// or phase-2 objective.
func (r *Revised) costOf(ci int, phase1 bool) float64 {
	if phase1 {
		if r.kinds[ci] == kindArtificial {
			return 1
		}
		return 0
	}
	if r.kinds[ci] == kindArtificial {
		return 0
	}
	return r.costs[ci]
}

// computeY fills r.y with the simplex multipliers c_B·B⁻¹.
func (r *Revised) computeY(phase1 bool) {
	m := r.m
	for j := range r.y {
		r.y[j] = 0
	}
	for i, b := range r.basis {
		cb := r.costOf(b, phase1)
		if cb == 0 {
			continue
		}
		row := r.binv[i*m : (i+1)*m]
		for j, v := range row {
			r.y[j] += cb * v
		}
	}
}

// ftran fills r.d with B⁻¹·a for column ci.
func (r *Revised) ftran(ci int) {
	m := r.m
	idx, val := r.col(ci)
	for i := 0; i < m; i++ {
		row := r.binv[i*m : (i+1)*m]
		var v float64
		for k, ri := range idx {
			v += row[ri] * val[k]
		}
		r.d[i] = v
	}
}

// ratioTest picks the leaving row for the FTRANed entering column, with
// Bland tie-breaking on the smallest basic column index. Basic artificials
// at value zero are forced out with a zero-length step even on a negative
// pivot element, so they can never grow positive once phase 1 ends.
func (r *Revised) ratioTest() int {
	leave := -1
	var best float64
	for i := 0; i < r.m; i++ {
		a := r.d[i]
		var ratio float64
		switch {
		case a > tol:
			ratio = r.xb[i] / a
			if ratio < 0 {
				ratio = 0
			}
		case a < -tol && r.kinds[r.basis[i]] == kindArtificial && r.xb[i] <= 1e-7:
			ratio = 0
		default:
			continue
		}
		if leave == -1 || ratio < best-tol ||
			(ratio < best+tol && r.basis[i] < r.basis[leave]) {
			leave = i
			best = ratio
		}
	}
	return leave
}

// pivot updates the inverse, the basic values and the basis for the
// entering column (already FTRANed into r.d) leaving at the given row.
func (r *Revised) pivot(leave, enter int) {
	m := r.m
	invp := 1 / r.d[leave]
	lrow := r.binv[leave*m : (leave+1)*m]
	for j := range lrow {
		lrow[j] *= invp
	}
	r.xb[leave] *= invp
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := r.d[i]
		if f == 0 {
			continue
		}
		row := r.binv[i*m : (i+1)*m]
		for j := range row {
			row[j] -= f * lrow[j]
		}
		r.xb[i] -= f * r.xb[leave]
	}
	r.inBasis[r.basis[leave]] = false
	r.inBasis[enter] = true
	r.basis[leave] = enter
}

// refactor rebuilds the dense inverse (and the basic values) from the
// current basis columns by Gauss-Jordan with partial pivoting, flushing
// accumulated floating-point drift.
func (r *Revised) refactor() error {
	m := r.m
	w := 2 * m
	if cap(r.refArena) < m*w {
		r.refArena = make([]float64, m*w)
	}
	a := r.refArena[:m*w]
	for i := range a {
		a[i] = 0
	}
	for col, b := range r.basis {
		idx, val := r.col(b)
		for k, ri := range idx {
			a[int(ri)*w+col] = val[k]
		}
	}
	for i := 0; i < m; i++ {
		a[i*w+m+i] = 1
	}
	for col := 0; col < m; col++ {
		piv, best := -1, tol
		for i := col; i < m; i++ {
			if v := math.Abs(a[i*w+col]); v > best {
				piv, best = i, v
			}
		}
		if piv == -1 {
			return fmt.Errorf("%w: singular basis during refactorization", ErrNumerical)
		}
		if piv != col {
			for j := 0; j < w; j++ {
				a[piv*w+j], a[col*w+j] = a[col*w+j], a[piv*w+j]
			}
		}
		inv := 1 / a[col*w+col]
		for j := 0; j < w; j++ {
			a[col*w+j] *= inv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			f := a[i*w+col]
			if f == 0 {
				continue
			}
			for j := 0; j < w; j++ {
				a[i*w+j] -= f * a[col*w+j]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(r.binv[i*m:(i+1)*m], a[i*w+m:i*w+w])
	}
	for i := 0; i < m; i++ {
		row := r.binv[i*m : (i+1)*m]
		var v float64
		for j, b := range r.rhs {
			v += row[j] * b
		}
		if v < 0 && v > -1e-9 {
			v = 0
		}
		r.xb[i] = v
	}
	return nil
}

// refactorEvery bounds the pivots between refactorizations of the inverse.
const refactorEvery = 128

// iterate runs primal simplex pivots under the phase-1 or phase-2
// objective until optimality or unboundedness. Entering columns follow
// Bland's rule over the fixed column order; artificials never enter.
func (r *Revised) iterate(phase1 bool, sol *Solution) (Status, error) {
	n := r.numCols()
	limit := maxPivots(r.m, n)
	for count := 0; ; count++ {
		if count > limit {
			return 0, fmt.Errorf("%w: pivot limit %d exceeded", ErrNumerical, limit)
		}
		r.computeY(phase1)
		enter := -1
		for ci := 0; ci < n; ci++ {
			if r.inBasis[ci] || r.kinds[ci] == kindArtificial {
				continue
			}
			rc := r.costOf(ci, phase1)
			idx, val := r.col(ci)
			for k, ri := range idx {
				rc -= r.y[ri] * val[k]
			}
			if rc < -tol {
				enter = ci
				break
			}
		}
		if enter == -1 {
			return Optimal, nil
		}
		r.ftran(enter)
		leave := r.ratioTest()
		if leave == -1 {
			return Unbounded, nil
		}
		r.pivot(leave, enter)
		sol.Iterations++
		r.iters++
		if (count+1)%refactorEvery == 0 {
			if err := r.refactor(); err != nil {
				return 0, err
			}
		}
	}
}

// driveOutArtificials pivots every basic artificial (at value zero after a
// successful phase 1) out of the basis where possible; rows whose artificial
// admits no pivot are redundant and keep it, harmlessly, at zero.
func (r *Revised) driveOutArtificials() {
	m := r.m
	n := r.numCols()
	for i := 0; i < m; i++ {
		if r.kinds[r.basis[i]] != kindArtificial {
			continue
		}
		row := r.binv[i*m : (i+1)*m]
		found := -1
		for ci := 0; ci < n; ci++ {
			if r.kinds[ci] == kindArtificial || r.inBasis[ci] {
				continue
			}
			idx, val := r.col(ci)
			var v float64
			for k, ri := range idx {
				v += row[ri] * val[k]
			}
			if math.Abs(v) > tol {
				found = ci
				break
			}
		}
		if found == -1 {
			continue
		}
		r.ftran(found)
		r.pivot(i, found)
	}
}

// Solve optimizes the program over the columns added so far and returns a
// basic solution with duals. The first call runs two-phase simplex, or
// phase 2 alone from an accepted SetStartBasis hint; later calls (after
// AddColumn) warm-start from the current basis and only run phase 2.
func (r *Revised) Solve() (*Solution, error) {
	sol := &Solution{}
	if err := r.SolveInto(sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveInto is Solve writing the result into a caller-owned Solution,
// reusing its X and Duals slices when their capacity allows — the
// allocation-free form a column-generation loop calls once per round. X
// and Duals are nil unless the status is Optimal.
func (r *Revised) SolveInto(sol *Solution) error {
	sol.Status = Optimal
	sol.Objective = 0
	sol.BasicCount = 0
	sol.Iterations = 0
	x, duals := sol.X, sol.Duals // buffers to reuse on the Optimal path
	sol.X, sol.Duals = nil, nil
	if !r.inited {
		r.init()
	}
	if r.m == 0 {
		for ci := 0; ci < r.numCols(); ci++ {
			if r.costs[ci] < -tol {
				sol.Status = Unbounded
				return nil
			}
		}
		sol.X = grow(x, r.nStruct)
		sol.Duals = grow(duals, 0)
		return nil
	}
	if !r.feasible {
		st, err := r.iterate(true, sol)
		if err != nil {
			return err
		}
		if st == Unbounded {
			return fmt.Errorf("%w: phase 1 unbounded", ErrNumerical)
		}
		var p1 float64
		for i, b := range r.basis {
			if r.kinds[b] == kindArtificial {
				p1 += r.xb[i]
			}
		}
		if p1 > 1e-7 {
			sol.Status = Infeasible
			return nil
		}
		r.driveOutArtificials()
		r.feasible = true
	}
	st, err := r.iterate(false, sol)
	if err != nil {
		return err
	}
	if st == Unbounded {
		sol.Status = Unbounded
		return nil
	}
	sol.X = grow(x, r.nStruct)
	sol.Duals = grow(duals, r.m)
	for i, b := range r.basis {
		if r.kinds[b] != kindStructural {
			continue
		}
		v := r.xb[i]
		if v < 0 && v > -1e-7 {
			v = 0
		}
		sol.X[r.poss[b]] = v
	}
	for ci := 0; ci < r.numCols(); ci++ {
		if r.kinds[ci] != kindStructural {
			continue
		}
		x := sol.X[r.poss[ci]]
		if x > tol {
			sol.BasicCount++
		}
		sol.Objective += r.costs[ci] * x
	}
	r.computeY(false)
	for i := 0; i < r.m; i++ {
		sol.Duals[i] = r.y[i] * r.sign[i]
	}
	return nil
}

// grow returns a zeroed length-n slice, reusing s's backing array when it
// is large enough and over-allocating otherwise, so a caller whose n keeps
// growing (column generation) reallocates only logarithmically often.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, n+n/2+8)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
