package release

import (
	"fmt"
	"sort"

	"strippack/internal/geom"
	"strippack/internal/lp"
)

// Model is the configuration LP of Lemma 3.3 built for a concrete instance:
// phases are delimited by the distinct release times ϱ_0=0 < ϱ_1 < … < ϱ_R
// (with ϱ_{R+1}=∞), variables x_{q,j} give the height of configuration q
// inside phase j, and the objective minimizes the height assigned past ϱ_R.
type Model struct {
	Widths   []float64 // distinct widths, ascending
	Releases []float64 // ϱ_0 … ϱ_R (ϱ_0 = 0)
	// Configs are the configurations the model ranges over: the full
	// enumeration for BuildModel, only the generated ones for SolveCG.
	Configs []Config
	// B[j][i] = total height of rectangles with release ϱ_j and width
	// Widths[i] (the paper's vector B_j).
	B [][]float64
	// Problem is the eagerly assembled LP; variable x_{q,j} has index
	// q*(R+1)+j. It is nil on models produced by SolveCG, whose restricted
	// master lives inside the solver instead.
	Problem *lp.Problem
}

// NumPhases returns R+1.
func (m *Model) NumPhases() int { return len(m.Releases) }

// VarIndex returns the LP column of x_{q,j}.
func (m *Model) VarIndex(q, j int) int { return q*m.NumPhases() + j }

// widthIndex finds the index of w in m.Widths (sorted ascending) by binary
// search with tolerance: the first width >= w-Eps is the only candidate,
// since distinct widths are more than Eps apart.
func (m *Model) widthIndex(w float64) (int, error) {
	i := sort.SearchFloat64s(m.Widths, w-geom.Eps)
	if i < len(m.Widths) && m.Widths[i] <= w+geom.Eps {
		return i, nil
	}
	return 0, fmt.Errorf("release: width %g not among the %d distinct widths", w, len(m.Widths))
}

// BuildModel assembles the configuration LP for the instance, whose widths
// and release times are used as-is (apply RoundReleases/GroupWidths first to
// bound their counts). maxConfigs caps the enumeration.
func BuildModel(in *geom.Instance, maxConfigs int) (*Model, error) {
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
	cfgs, err := EnumerateConfigs(m.Widths, in.StripWidth(), maxConfigs)
	if err != nil {
		return nil, err
	}
	m.Configs = cfgs
	R := len(m.Releases) - 1
	W := len(m.Widths)
	Q := len(cfgs)
	phases := R + 1

	m.B = make([][]float64, phases)
	for j := range m.B {
		m.B[j] = make([]float64, W)
	}
	for _, r := range in.Rects {
		i, err := m.widthIndex(r.W)
		if err != nil {
			return nil, err
		}
		j := phaseOfRelease(m.Releases, r.Release)
		m.B[j][i] += r.H
	}

	prob := lp.NewProblem(Q * phases)
	// Objective: minimize Σ_q x_{q,R}.
	for q := 0; q < Q; q++ {
		prob.Objective[m.VarIndex(q, R)] = 1
	}
	// Rows are added sparse, built in one scratch pair that
	// AddSparseConstraint copies; indices ascend because q is the outer
	// loop and VarIndex(q, j) = q*phases + j with j < phases.
	idx := make([]int32, 0, Q*phases)
	val := make([]float64, 0, Q*phases)
	// Packing constraints: Σ_q x_{q,j} <= ϱ_{j+1} - ϱ_j for j < R.
	for j := 0; j < R; j++ {
		idx, val = idx[:0], val[:0]
		for q := 0; q < Q; q++ {
			idx = append(idx, int32(m.VarIndex(q, j)))
			val = append(val, 1)
		}
		if err := prob.AddSparseConstraint(idx, val, lp.LE, m.Releases[j+1]-m.Releases[j]); err != nil {
			return nil, err
		}
	}
	// Covering constraints: for each k and width i,
	// Σ_{j>=k} Σ_q a_{iq} x_{q,j} >= Σ_{j>=k} B_j[i].
	for k := 0; k < phases; k++ {
		for i := 0; i < W; i++ {
			var rhs float64
			for j := k; j < phases; j++ {
				rhs += m.B[j][i]
			}
			if rhs == 0 {
				continue // vacuous
			}
			idx, val = idx[:0], val[:0]
			for q := 0; q < Q; q++ {
				if c := cfgs[q].Counts[i]; c > 0 {
					for j := k; j < phases; j++ {
						idx = append(idx, int32(m.VarIndex(q, j)))
						val = append(val, float64(c))
					}
				}
			}
			if err := prob.AddSparseConstraint(idx, val, lp.GE, rhs); err != nil {
				return nil, err
			}
		}
	}
	m.Problem = prob
	return m, nil
}

// phaseOfRelease returns the largest j with Releases[j] <= r (tolerant) by
// binary search over the ascending release values.
func phaseOfRelease(releases []float64, r float64) int {
	j := sort.Search(len(releases), func(k int) bool {
		return releases[k] > r+geom.Eps
	}) - 1
	if j < 0 {
		j = 0
	}
	return j
}

// FractionalSolution is the solved configuration LP.
type FractionalSolution struct {
	Model *Model
	// X[q][j] is the height of configuration q in phase j.
	X [][]float64
	// Height is ϱ_R + Σ_q x_{q,R}: the height of the optimal fractional
	// packing OPTf of the modeled instance (Lemma 3.3).
	Height float64
	// Occurrences counts distinct (q, j) with x > 0; a basic optimum has at
	// most (W+1)(R+1) of them.
	Occurrences int
	// Iterations is the simplex pivot count (experiment E7).
	Iterations int
}

// SolveModel solves the LP (optionally with the exact rational solver) and
// unpacks the solution into per-phase configuration heights.
func SolveModel(m *Model, exact bool) (*FractionalSolution, error) {
	var sol *lp.Solution
	var err error
	if exact {
		sol, err = lp.SolveExact(m.Problem)
	} else {
		sol, err = lp.Solve(m.Problem)
	}
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, fmt.Errorf("release: configuration LP infeasible (phase capacities too small?)")
	default:
		return nil, fmt.Errorf("release: configuration LP %v", sol.Status)
	}
	phases := m.NumPhases()
	Q := len(m.Configs)
	fs := &FractionalSolution{Model: m, Iterations: sol.Iterations}
	fs.X = make([][]float64, Q)
	for q := 0; q < Q; q++ {
		fs.X[q] = make([]float64, phases)
		for j := 0; j < phases; j++ {
			v := sol.X[m.VarIndex(q, j)]
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
	return fs, nil
}

// FractionalLowerBound computes OPTf of the instance exactly as modeled
// (its own widths and release times, no rounding). Because fractional
// packing relaxes the integral problem, the returned height is a valid
// lower bound on OPT(P); experiments use it as the ratio denominator.
//
// The solve runs SolveCG's column generation with the given options, so
// no configuration enumeration happens (the dense oracle path remains
// reachable via BuildModel/SolveModel), but its first master solve starts
// from the crash basis (see the package doc): 675 -> 284 pivots per solve
// on the benchmark's n=40, K=8 shape, with the height within 1e-12
// relative of SolveCG's. BoundCache memoizes repeated solves across an
// experiment grid.
func FractionalLowerBound(in *geom.Instance, opts CGOptions) (float64, error) {
	fs, _, err := solveCG(in, opts, nil, true)
	if err != nil {
		return 0, err
	}
	return fs.Height, nil
}
