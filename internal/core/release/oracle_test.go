package release

import (
	"fmt"

	"strippack/internal/geom"
	"strippack/internal/lp"
	"strippack/internal/lp/lptest"
)

// This file is the configuration-LP oracle: the LP of Lemma 3.3 assembled
// eagerly over every enumerated configuration as a row-form program, and
// solved by lptest's dense tableau (SolveModel) or in exact rational
// arithmetic (solveModelExact). SolveCG and SolveEnumerated are checked
// against it.

// denseModel is a Model together with its eagerly assembled LP.
type denseModel struct {
	*Model
	// Problem is the LP; variable x_{q,j} has index q*(R+1)+j.
	Problem *lptest.Problem
}

// VarIndex returns the LP column of x_{q,j}.
func (m *Model) VarIndex(q, j int) int { return q*m.NumPhases() + j }

// BuildModel assembles the configuration LP for the instance, whose widths
// and release times are used as-is (apply RoundReleases/GroupWidths first to
// bound their counts). maxConfigs caps the enumeration.
func BuildModel(in *geom.Instance, maxConfigs int) (*denseModel, error) {
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

	prob := lptest.NewProblem(Q * phases)
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
	return &denseModel{Model: m, Problem: prob}, nil
}

// SolveModel solves the LP with the dense simplex and unpacks the solution
// into per-phase configuration heights.
func SolveModel(m *denseModel) (*FractionalSolution, error) {
	sol, err := lptest.Solve(m.Problem)
	if err != nil {
		return nil, err
	}
	return unpack(m.Model, sol)
}

// solveModelExact solves m's LP in exact rational arithmetic, the oracle
// the float engines are checked against.
func solveModelExact(m *denseModel) (*FractionalSolution, error) {
	sol, err := lptest.SolveExact(m.Problem)
	if err != nil {
		return nil, err
	}
	return unpack(m.Model, sol)
}

// unpack turns a solution of m's LP into per-phase configuration heights,
// zeroing values below 1e-9, or reports why the LP has no optimum.
func unpack(m *Model, sol *lp.Solution) (*FractionalSolution, error) {
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
