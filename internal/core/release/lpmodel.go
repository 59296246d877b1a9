package release

import (
	"fmt"
	"sort"

	"strippack/internal/geom"
)

// Model is the configuration LP of Lemma 3.3 built for a concrete instance:
// phases are delimited by the distinct release times ϱ_0=0 < ϱ_1 < … < ϱ_R
// (with ϱ_{R+1}=∞), variables x_{q,j} give the height of configuration q
// inside phase j, and the objective minimizes the height assigned past ϱ_R.
type Model struct {
	Widths   []float64 // distinct widths, ascending
	Releases []float64 // ϱ_0 … ϱ_R (ϱ_0 = 0)
	// Configs are the configurations the model ranges over: the full
	// enumeration for SolveEnumerated, only the generated ones for SolveCG.
	Configs []Config
	// B[j][i] = total height of rectangles with release ϱ_j and width
	// Widths[i] (the paper's vector B_j).
	B [][]float64
}

// NumPhases returns R+1.
func (m *Model) NumPhases() int { return len(m.Releases) }

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

// FractionalLowerBound computes OPTf of the instance exactly as modeled
// (its own widths and release times, no rounding). Because fractional
// packing relaxes the integral problem, the returned height is a valid
// lower bound on OPT(P); experiments use it as the ratio denominator.
//
// The solve runs SolveCG's column generation with the given options, so
// no configuration enumeration happens, but its first master solve starts
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
