package release

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"strippack/internal/geom"
	"strippack/internal/lp"
)

// This file solves the configuration LP on one master problem (lp.Revised,
// sparse columns, warm-started between rounds), started from either of two
// column sets. SolveCG runs delayed column generation (Gilmore–Gomory
// style): it starts from the single-width configurations and never
// enumerates, pricing new configurations on demand. SolveEnumerated loads
// all Q configurations up front, exponential in K; its one pricing round
// then certifies the optimum.
//
//   - The master has one LE packing row per finite phase and one GE
//     covering row per (phase k, width i) with B_k[i] > 0. Suffix covering
//     rows with B_k[i] == 0 are implied by the row of the next demanding
//     phase (their right-hand side is the same suffix sum and supply is
//     non-negative), so the master has at most R + n rows regardless of K.
//   - Pricing: with duals π_j (packing) and μ_{k,i} (covering), the best
//     new column for phase j maximizes Σ_i a_i·ν_{j,i} over configurations
//     Σ_i a_i·w_i <= strip, where ν_{j,i} = Σ_{k<=j} μ_{k,i} — a bounded
//     knapsack over the at most W distinct widths. When the widths share a
//     common unit (FPGA columns) the knapsack is a dense DP over
//     strip-in-units; otherwise an exact branch-and-bound over the width
//     multiplicities with a fractional upper-bound prune.
//   - Phases price independently, fanned out on a RunGrid-style worker
//     pool. Determinism contract: pricing is a pure function of the duals
//     with fixed tie-breaking (first improvement in fixed scan order), and
//     candidates merge in phase order, so the generated configuration
//     sequence — and therefore every table built on SolveCG — is
//     byte-identical for any Workers value.
//
// The loop terminates when no phase prices a column with reduced cost
// below -cgPriceTol: the master optimum is then optimal for the full LP.
// The tests check both paths against the LP assembled over the full
// enumeration and solved by lptest's dense and exact-rational solvers.

// CGOptions configures SolveCG and Solver.
type CGOptions struct {
	// Workers is the pricing fan-out over phases (0 = GOMAXPROCS). Results
	// are byte-identical for every value >= 1.
	Workers int
	// DisablePool turns off cross-solve column pooling in the engines that
	// carry one (Solver, and BoundCache through it), making every solve run
	// the one-shot FractionalLowerBound solve — the poolless path the
	// -cg-pool=false experiment flag pins tables against. One-shot SolveCG
	// and FractionalLowerBound calls never pool and ignore it.
	DisablePool bool
}

// CGStats reports the size of the column-generation run.
type CGStats struct {
	Rounds  int // master re-optimizations (pricing rounds + 1)
	Columns int // structural columns in the final master
	Rows    int // master rows
	Pivots  int // simplex pivots accumulated across all rounds
	// PooledColumns counts the configurations bulk-loaded from a Solver's
	// persistent pool into this solve's restricted master (each spans
	// NumPhases master columns); 0 on poolless solves.
	PooledColumns int
	// PoolHits counts the pooled configurations that carry nonzero height
	// in the final optimum — the warm-start columns the answer actually
	// stands on.
	PoolHits int
}

// cgPriceTol is the reduced-cost threshold below which a priced column is
// added. It is looser than the simplex tolerance (1e-9), so a column
// already present — whose reduced cost the master certifies >= -1e-9 — can
// never be re-generated.
const cgPriceTol = 1e-7

// maxRounds caps the pricing rounds as a safety net. Each round adds at
// least one new configuration, so the cap is only hit on numerically
// pathological inputs.
const maxRounds = 10000

// maxPriceUnits caps the knapsack DP table; width sets without a common
// unit this fine fall back to the branch-and-bound pricer.
const maxPriceUnits = 1 << 12

// SolveCG solves the configuration LP of Lemma 3.3 by delayed column
// generation, starting from the trivial feasible set of single-width
// configurations. The returned FractionalSolution indexes X by the
// generated configurations on Model.Configs. Its Height is the LP optimum
// to within numerical tolerance, and the optimum is basic, so ToIntegral
// and the Lemma 3.4 occurrence bound apply unchanged. SolveCG is the
// poolless reference path. Its first master solve runs phase 1 from the
// all-artificial start, because APTAS rounds the basic optimum it returns
// and E7 reports its pivots: the crash start the value-only solves use
// (FractionalLowerBound, Solver) would move both.
func SolveCG(in *geom.Instance, opts CGOptions) (*FractionalSolution, *CGStats, error) {
	return solveCG(in, opts, nil, false)
}

// SolveEnumerated solves the configuration LP over every configuration
// EnumerateConfigs lists for the instance's widths, as the Kenyon-Rémila
// scheme (internal/kr) needs. It builds SolveCG's master but loads the
// whole enumeration, in enumeration order, in place of the singleton
// start, and solves it from the all-artificial start. The pricing round
// that follows finds no new column and so certifies the optimum. The
// returned Model.Configs is the enumeration, and X is indexed by it. The
// enumeration is exponential in K and capped at 1<<20 configurations,
// beyond which SolveEnumerated fails.
func SolveEnumerated(in *geom.Instance) (*FractionalSolution, error) {
	st, err := newCGSolve(in, 0)
	if err != nil {
		return nil, err
	}
	cfgs, err := EnumerateConfigs(st.m.Widths, st.strip, 0)
	if err != nil {
		return nil, err
	}
	if err := st.seedConfigs(cfgs); err != nil {
		return nil, err
	}
	fs, _, err := st.run()
	return fs, err
}

// solveCG is the column-generation core: build the restricted master,
// start from the singleton configurations, bulk-load the seed
// configurations (a Solver's pool snapshot; nil for poolless solves), then
// alternate master re-optimization with knapsack pricing until no column
// improves. With crash set the first master solve starts from the
// closed-form feasible basis (setCrashBasis) instead of running phase 1.
func solveCG(in *geom.Instance, opts CGOptions, seed []Config, crash bool) (*FractionalSolution, *CGStats, error) {
	st, err := newCGSolve(in, opts.Workers)
	if err != nil {
		return nil, nil, err
	}
	// Arena hints: W singleton configs, the pool seed, plus a generation
	// headroom of ~32 configs (E7 tops out around 26 even at K=24), each
	// with one column per phase, plus up to two logical columns per row; a
	// phase-j column hits on average about half the covering rows.
	// Exceeding the hint just falls back to append growth.
	rows := st.solver.NumRows()
	expCols := (st.W+len(seed)+32)*st.phases + 2*rows
	expNNZ := expCols * (rows/2 + 2)
	st.solver.Reserve(expCols, expNNZ)
	st.m.Configs = make([]Config, 0, st.W+len(seed)+32)

	// Trivial feasible start: the maximal single-width configuration per
	// width (phase R is uncapped, so covering is always satisfiable).
	// newCGSolve validated every width to at most strip+Eps, so c >= 1.
	for i := 0; i < st.W; i++ {
		c := int((st.strip + geom.Eps) / st.m.Widths[i])
		counts := st.carveCounts()
		counts[i] = c
		if err := st.addConfig(counts); err != nil {
			return nil, nil, err
		}
	}
	if len(seed) > 0 {
		if err := st.seedConfigs(seed); err != nil {
			return nil, nil, err
		}
	}
	if crash {
		if err := st.setCrashBasis(rows); err != nil {
			return nil, nil, err
		}
	}
	return st.run()
}

// newCGSolve builds the configuration LP's master for the instance, with
// no columns yet: one LE packing row per finite phase, then one GE
// covering row per demanding (phase, width) pair, on lp.Revised, and the
// pricing state for the given worker count (0 = GOMAXPROCS).
func newCGSolve(in *geom.Instance, workers int) (*cgSolve, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.N() == 0 {
		return nil, fmt.Errorf("release: empty instance")
	}
	m := &Model{
		Widths:   DistinctWidths(in),
		Releases: DistinctReleases(in),
	}
	R := len(m.Releases) - 1
	W := len(m.Widths)
	phases := R + 1
	// One float slab backs B, the covering right-hand sides and the ν
	// pricing table (each phases×W).
	slab := make([]float64, 3*phases*W)
	bBack, rowRHS, nuBack := slab[:phases*W], slab[phases*W:2*phases*W], slab[2*phases*W:]
	m.B = make([][]float64, phases)
	for j := range m.B {
		m.B[j] = bBack[j*W : (j+1)*W : (j+1)*W]
	}
	for _, r := range in.Rects {
		i, err := m.widthIndex(r.W)
		if err != nil {
			return nil, err
		}
		m.B[phaseOfRelease(m.Releases, r.Release)][i] += r.H
	}
	strip := in.StripWidth()

	// Master rows: packing rows are 0..R-1; covering rows follow in
	// (phase, width) order, one per demanding pair.
	ops := make([]lp.Relation, R, R+in.N())
	rhs := make([]float64, R, R+in.N())
	for j := 0; j < R; j++ {
		ops[j] = lp.LE
		rhs[j] = m.Releases[j+1] - m.Releases[j]
	}
	covRow := make([][]int32, phases)
	covBack := make([]int32, phases*W)
	for k := range covRow {
		covRow[k] = covBack[k*W : (k+1)*W : (k+1)*W]
		for i := range covRow[k] {
			covRow[k][i] = -1
		}
	}
	// rowRHS[k*W+i] = Σ_{j>=k} B_j[i], the covering right-hand side.
	copy(rowRHS[(phases-1)*W:], m.B[phases-1])
	for k := phases - 2; k >= 0; k-- {
		for i := 0; i < W; i++ {
			rowRHS[k*W+i] = rowRHS[(k+1)*W+i] + m.B[k][i]
		}
	}
	for k := 0; k < phases; k++ {
		for i := 0; i < W; i++ {
			if m.B[k][i] > 0 {
				covRow[k][i] = int32(len(ops))
				ops = append(ops, lp.GE)
				rhs = append(rhs, rowRHS[k*W+i])
			}
		}
	}

	solver, err := lp.NewRevised(ops, rhs)
	if err != nil {
		return nil, err
	}
	st := &cgSolve{
		m: m, R: R, W: W, phases: phases, strip: strip,
		covRow: covRow, solver: solver,
	}
	wu, L, quantized := quantizeWidths(strip, m.Widths)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > phases {
		workers = phases
	}
	st.pricers = make([]*pricer, workers)
	for w := range st.pricers {
		st.pricers[w] = newPricer(m.Widths, strip, wu, L, quantized)
	}
	st.nu = make([][]float64, phases)
	for j := range st.nu {
		st.nu[j] = nuBack[j*W : (j+1)*W : (j+1)*W]
	}
	st.candBuf = make([]int, phases*W)
	st.candOK = make([]bool, phases)
	st.colIdx = make([]int32, 0, len(ops)+1)
	st.colVal = make([]float64, 0, len(ops)+1)
	return st, nil
}

// run alternates master re-optimization with pricing until no column
// improves, then unpacks the optimum into per-phase configuration heights.
func (st *cgSolve) run() (*FractionalSolution, *CGStats, error) {
	m, solver, phases := st.m, st.solver, st.phases
	var sol lp.Solution
	rounds := 0
	for {
		if err := solver.SolveInto(&sol); err != nil {
			return nil, nil, err
		}
		switch sol.Status {
		case lp.Optimal:
		case lp.Infeasible:
			return nil, nil, fmt.Errorf("release: configuration LP infeasible (phase capacities too small?)")
		default:
			return nil, nil, fmt.Errorf("release: configuration LP %v", sol.Status)
		}
		rounds++
		added, err := st.priceAndAdd(sol.Duals)
		if err != nil {
			return nil, nil, err
		}
		if added == 0 {
			break
		}
		if rounds >= maxRounds {
			return nil, nil, fmt.Errorf("release: column generation did not converge in %d rounds", maxRounds)
		}
	}

	Q := len(m.Configs)
	fs := &FractionalSolution{Model: m, Iterations: solver.Iterations()}
	fs.X = make([][]float64, Q)
	xBack := make([]float64, Q*phases)
	for q := 0; q < Q; q++ {
		fs.X[q] = xBack[q*phases : (q+1)*phases : (q+1)*phases]
		for j := 0; j < phases; j++ {
			v := sol.X[q*phases+j]
			if v < 1e-9 {
				v = 0
			}
			fs.X[q][j] = v
			if v > 0 {
				fs.Occurrences++
			}
		}
	}
	fs.Height = m.Releases[phases-1] + sol.Objective
	stats := &CGStats{
		Rounds:  rounds,
		Columns: solver.NumColumns(),
		Rows:    solver.NumRows(),
		Pivots:  solver.Iterations(),
	}
	if st.seedCount > 0 {
		stats.PooledColumns = st.seedCount
		for q := st.seedStart; q < st.seedStart+st.seedCount; q++ {
			for _, v := range fs.X[q] {
				if v > 0 {
					stats.PoolHits++
					break
				}
			}
		}
	}
	return fs, stats, nil
}

// cgSolve is the state of one configuration-LP solve: its master and
// pricing state.
type cgSolve struct {
	m      *Model
	R, W   int
	phases int
	strip  float64
	covRow [][]int32
	solver *lp.Revised

	pricers []*pricer
	nu      [][]float64 // ν_{j,i}: cumulative clamped covering duals
	candBuf []int       // phase j's priced configuration at [j*W, (j+1)*W)
	candOK  []bool

	countsArena []int   // slab the Config.Counts slices are carved from
	colIdx      []int32 // column assembly scratch
	colVal      []float64

	seedStart, seedCount int // seedConfigs' span inside m.Configs
}

// carveCounts returns a zeroed W-slot counts slice from the arena.
func (st *cgSolve) carveCounts() []int {
	if len(st.countsArena) < st.W {
		st.countsArena = make([]int, 64*st.W)
	}
	counts := st.countsArena[:st.W:st.W]
	st.countsArena = st.countsArena[st.W:]
	return counts
}

// setCrashBasis hands the master a closed-form feasible basis for its
// first solve, so phase 1 never runs: every packing row's slack; for each
// width i, its singleton configuration (config i, since every width has
// one) in the uncapped last phase R, basic on i's first demanding covering
// row; and the surplus of every other covering row. That column alone
// covers all of width i's suffix rows: at the value that meets the first
// (largest) suffix sum, each later row's surplus is the positive gap
// between two suffix sums. Per width the block is the singleton's
// multiplicity over unit surplus columns, so the basis is nonsingular.
func (st *cgSolve) setCrashBasis(rows int) error {
	start := make([]int, rows)
	for r := range start {
		start[r] = lp.RowLogical
	}
	for i := 0; i < st.W; i++ {
		for k := 0; k < st.phases; k++ {
			if r := st.covRow[k][i]; r >= 0 {
				start[r] = i*st.phases + st.R
				break
			}
		}
	}
	return st.solver.SetStartBasis(start)
}

// addConfig registers a generated configuration and appends its R+1 phase
// columns to the master; column q*phases+j is x_{q,j}. counts must be
// owned by the caller (carveCounts).
func (st *cgSolve) addConfig(counts []int) error {
	var total float64
	for i, c := range counts {
		total += float64(c) * st.m.Widths[i]
	}
	st.m.Configs = append(st.m.Configs, Config{Counts: counts, TotalWidth: total})
	for j := 0; j < st.phases; j++ {
		idx, val := st.colIdx[:0], st.colVal[:0]
		if j < st.R {
			idx = append(idx, int32(j))
			val = append(val, 1)
		}
		for k := 0; k <= j; k++ {
			row := st.covRow[k]
			for i, c := range counts {
				if c > 0 && row[i] >= 0 {
					idx = append(idx, row[i])
					val = append(val, float64(c))
				}
			}
		}
		cost := 0.0
		if j == st.R {
			cost = 1
		}
		if _, err := st.solver.AddColumn(cost, idx, val); err != nil {
			return err
		}
		st.colIdx, st.colVal = idx[:0], val[:0]
	}
	return nil
}

// seedConfigs bulk-loads configurations into the master after the columns
// it already holds: a Solver's pool snapshot after the singleton start, or
// SolveEnumerated's whole enumeration into the empty master. Every seed
// fits the strip (the pool key fixes the strip width and the width set),
// so its phase columns load unchanged. Seeds dedup against the columns
// already loaded (pool entries and enumerated configurations are distinct
// among themselves) and append in the given order, keeping the master
// column order — and therefore the simplex path — a pure function of the
// solve sequence. The Counts slices stay shared with the caller read-only.
// All columns assemble into one lp.Revised.AddColumns batch so the arenas
// grow exactly once.
func (st *cgSolve) seedConfigs(seed []Config) error {
	st.seedStart = len(st.m.Configs)
	st.m.Configs = slices.Grow(st.m.Configs, len(seed))
	for _, c := range seed {
		dup := false
		for q := range st.m.Configs[:st.seedStart] {
			if slices.Equal(st.m.Configs[q].Counts, c.Counts) {
				dup = true
				break
			}
		}
		if !dup {
			st.m.Configs = append(st.m.Configs, c)
		}
	}
	accepted := st.m.Configs[st.seedStart:]
	st.seedCount = len(accepted)
	if st.seedCount == 0 {
		return nil
	}
	// Exact CSR sizing: a covering-row entry of phase row k appears in the
	// columns of phases j >= k, i.e. phases-k times; each of the R capped
	// phases contributes one packing entry per configuration.
	nnz := st.seedCount * st.R
	for _, c := range accepted {
		for k := 0; k < st.phases; k++ {
			row := st.covRow[k]
			for i, cnt := range c.Counts {
				if cnt > 0 && row[i] >= 0 {
					nnz += st.phases - k
				}
			}
		}
	}
	nCols := st.seedCount * st.phases
	costs := make([]float64, 0, nCols)
	starts := make([]int32, 1, nCols+1)
	idx := make([]int32, 0, nnz)
	val := make([]float64, 0, nnz)
	for _, c := range accepted {
		for j := 0; j < st.phases; j++ {
			if j < st.R {
				idx = append(idx, int32(j))
				val = append(val, 1)
			}
			for k := 0; k <= j; k++ {
				row := st.covRow[k]
				for i, cnt := range c.Counts {
					if cnt > 0 && row[i] >= 0 {
						idx = append(idx, row[i])
						val = append(val, float64(cnt))
					}
				}
			}
			cost := 0.0
			if j == st.R {
				cost = 1
			}
			costs = append(costs, cost)
			starts = append(starts, int32(len(idx)))
		}
	}
	_, err := st.solver.AddColumns(costs, starts, idx, val)
	return err
}

// priceAndAdd runs one pricing round over all phases on the worker pool
// and adds the new configurations in phase order. It returns how many were
// added (0 means the master optimum is optimal for the full LP).
func (st *cgSolve) priceAndAdd(duals []float64) (int, error) {
	// ν_{j,i} = Σ_{k<=j} μ_{k,i}, with negative (numerically drifted)
	// covering duals clamped to zero. Clamping raises ν and therefore
	// *lowers* the computed reduced cost (rc_clamped <= rc_true), so
	// pricing stays conservative: when no clamped reduced cost beats
	// -cgPriceTol, every true reduced cost is above it too and the master
	// optimum is certified.
	for i := 0; i < st.W; i++ {
		acc := 0.0
		for k := 0; k < st.phases; k++ {
			if r := st.covRow[k][i]; r >= 0 {
				if d := duals[r]; d > 0 {
					acc += d
				}
			}
			st.nu[k][i] = acc
		}
	}
	if workers := len(st.pricers); workers <= 1 {
		for j := 0; j < st.phases; j++ {
			st.pricePhase(j, st.pricers[0], duals)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(p *pricer) {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= st.phases {
						return
					}
					st.pricePhase(j, p, duals)
				}
			}(st.pricers[w])
		}
		wg.Wait()
	}
	// Candidates are deduped against every generated configuration (in
	// phase order, so the merge is independent of the worker count). A
	// candidate from an earlier round is all but impossible — its column
	// sits in the master with reduced cost >= -1e-9 and the clamping gap
	// is orders below the -1e-7 pricing threshold — but skipping it (and
	// terminating when nothing new priced) is the correct response: the
	// knapsack maximum then bounds every configuration's reduced cost at
	// the existing column's, certifying the optimum within tolerance. The
	// linear scan is fine; the generated set stays a few dozen configs.
	added := 0
	for j := 0; j < st.phases; j++ {
		if !st.candOK[j] {
			continue
		}
		c := st.candBuf[j*st.W : (j+1)*st.W]
		dup := false
		for q := range st.m.Configs {
			if slices.Equal(st.m.Configs[q].Counts, c) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		counts := st.carveCounts()
		copy(counts, c)
		if err := st.addConfig(counts); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// pricePhase prices one phase against the cumulative duals and records a
// candidate configuration when it improves.
func (st *cgSolve) pricePhase(j int, p *pricer, duals []float64) {
	val := p.price(st.nu[j])
	cost, pi := 0.0, 0.0
	if j == st.R {
		cost = 1
	} else {
		pi = duals[j]
	}
	if cost-pi-val < -cgPriceTol {
		copy(st.candBuf[j*st.W:(j+1)*st.W], p.counts)
		st.candOK[j] = true
	} else {
		st.candOK[j] = false
	}
}

// pricer solves the per-phase pricing knapsack: maximize Σ_i counts_i·ν_i
// subject to Σ_i counts_i·width_i <= strip, counts integral. The argmax is
// left in counts. Scratch is owned by one worker and reused across rounds,
// so pricing allocates nothing after construction.
type pricer struct {
	widths []float64
	strip  float64

	// unit-quantized DP (FPGA-style widths)
	wu        []int32 // widths in units, ascending
	L         int     // strip in units
	quantized bool
	V         []float64 // V[u]: best value with capacity u
	choice    []int32   // width taken at u, -1 = carry from u-1

	// branch-and-bound fallback
	dens []float64 // dens[i]: max ν_k/width_k over k >= i (upper bound)
	best []int

	counts []int
}

func newPricer(widths []float64, strip float64, wu []int32, L int, quantized bool) *pricer {
	W := len(widths)
	vlen := 0
	if quantized {
		vlen = L + 1
	}
	fslab := make([]float64, W+1+vlen) // dens | V
	islab := make([]int, 2*W)          // best | counts
	p := &pricer{
		widths: widths, strip: strip,
		wu: wu, L: L, quantized: quantized,
		dens:   fslab[:W+1],
		best:   islab[:W],
		counts: islab[W:],
	}
	if quantized {
		p.V = fslab[W+1:]
		p.choice = make([]int32, L+1)
	}
	return p
}

// price dispatches to the DP or the branch-and-bound pricer. Both are
// exact and deterministic (fixed scan order, strict improvement keeps the
// first optimum found).
func (p *pricer) price(nu []float64) float64 {
	if p.quantized {
		return p.priceUnits(nu)
	}
	return p.priceDFS(nu)
}

// priceUnits is the bounded-knapsack DP over the common width unit: O(L·W)
// time, zero allocations. choice records the reconstruction.
func (p *pricer) priceUnits(nu []float64) float64 {
	V, choice := p.V, p.choice
	V[0], choice[0] = 0, -1
	for u := 1; u <= p.L; u++ {
		best, ch := V[u-1], int32(-1)
		for i, w := range p.wu {
			if int(w) > u {
				break // wu ascends with widths
			}
			if v := V[u-int(w)] + nu[i]; v > best {
				best, ch = v, int32(i)
			}
		}
		V[u], choice[u] = best, ch
	}
	for i := range p.counts {
		p.counts[i] = 0
	}
	for u := p.L; u > 0; {
		if c := choice[u]; c < 0 {
			u--
		} else {
			p.counts[c]++
			u -= int(p.wu[c])
		}
	}
	return V[p.L]
}

// priceDFS is the exact branch-and-bound pricer for widths without a
// common unit: depth-first over multiplicities (largest first), pruned by
// the fractional-knapsack upper bound val + rem·max_{k>=i}(ν_k/w_k).
func (p *pricer) priceDFS(nu []float64) float64 {
	W := len(p.widths)
	p.dens[W] = 0
	for i := W - 1; i >= 0; i-- {
		d := nu[i] / p.widths[i]
		if d < p.dens[i+1] {
			d = p.dens[i+1]
		}
		p.dens[i] = d
	}
	for i := range p.counts {
		p.counts[i] = 0
		p.best[i] = 0
	}
	bestVal := 0.0
	var rec func(i int, rem, val float64)
	rec = func(i int, rem, val float64) {
		if val > bestVal {
			bestVal = val
			copy(p.best, p.counts)
		}
		if i == W || val+rem*p.dens[i] <= bestVal+1e-12 {
			return
		}
		max := int((rem + geom.Eps) / p.widths[i])
		for c := max; c >= 1; c-- {
			p.counts[i] = c
			rec(i+1, rem-float64(c)*p.widths[i], val+float64(c)*nu[i])
		}
		p.counts[i] = 0
		rec(i+1, rem, val)
	}
	rec(0, p.strip, 0)
	copy(p.counts, p.best)
	return bestVal
}

// quantizeWidths finds a common unit g of the strip width and every
// distinct width (approximate Euclidean gcd with relative tolerance) and
// returns the widths and strip expressed in units. ok is false when no
// unit at most maxPriceUnits-fine exists — continuous widths — in which
// case pricing falls back to branch-and-bound.
func quantizeWidths(strip float64, widths []float64) (wu []int32, L int, ok bool) {
	if len(widths) == 0 || strip <= 0 {
		return nil, 0, false
	}
	cut := 1e-9 * strip
	g := strip
	for _, w := range widths {
		if w <= 0 {
			return nil, 0, false
		}
		a, b := g, w
		for b > cut {
			a, b = b, math.Mod(a, b)
		}
		g = a
		if g < strip/float64(maxPriceUnits) {
			return nil, 0, false
		}
	}
	Lf := strip / g
	L = int(math.Round(Lf))
	if L < 1 || L > maxPriceUnits || math.Abs(Lf-float64(L)) > 1e-6*float64(L) {
		return nil, 0, false
	}
	wu = make([]int32, len(widths))
	for i, w := range widths {
		uf := w / g
		u := math.Round(uf)
		if u < 1 || math.Abs(uf-u) > 1e-6*u {
			return nil, 0, false
		}
		wu[i] = int32(u)
	}
	return wu, L, true
}
