package lptest

import (
	"fmt"
	"math/big"

	"strippack/internal/lp"
)

// SolveExact solves the same program as Solve with exact rational
// arithmetic (math/big.Rat) and Bland's rule, so it terminates on every
// input and never suffers round-off. It is slow, and meant for
// cross-validating the float64 solvers on small programs.
func SolveExact(p *Problem) (*lp.Solution, error) {
	if len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d entries, want %d", len(p.Objective), p.NumVars)
	}
	m := len(p.Constraints)
	n := p.NumVars

	nSlack := 0
	for _, c := range p.Constraints {
		if c.Op != lp.EQ {
			nSlack++
		}
	}
	totalGuess := n + nSlack + m
	cols := totalGuess + 1
	t := make([][]*big.Rat, m)
	basis := make([]int, m)
	artCol := n + nSlack
	nArt := 0
	slackIdx := n
	for i, c := range p.Constraints {
		row := make([]*big.Rat, cols)
		for j := range row {
			row[j] = new(big.Rat)
		}
		c.ForEach(func(j int, v float64) {
			row[j].SetFloat64(v)
		})
		rhs := new(big.Rat).SetFloat64(c.RHS)
		op := c.Op
		if rhs.Sign() < 0 {
			for j := 0; j < n; j++ {
				row[j].Neg(row[j])
			}
			rhs.Neg(rhs)
			switch op {
			case lp.LE:
				op = lp.GE
			case lp.GE:
				op = lp.LE
			}
		}
		switch op {
		case lp.LE:
			row[slackIdx].SetInt64(1)
			basis[i] = slackIdx
			slackIdx++
		case lp.GE:
			row[slackIdx].SetInt64(-1)
			slackIdx++
			row[artCol+nArt].SetInt64(1)
			basis[i] = artCol + nArt
			nArt++
		case lp.EQ:
			row[artCol+nArt].SetInt64(1)
			basis[i] = artCol + nArt
			nArt++
		}
		row[cols-1].Set(rhs)
		t[i] = row
	}
	usedCols := n + nSlack + nArt
	sol := &lp.Solution{}

	if nArt > 0 {
		obj := make([]*big.Rat, usedCols)
		for j := range obj {
			obj[j] = new(big.Rat)
		}
		for j := artCol; j < artCol+nArt; j++ {
			obj[j].SetInt64(1)
		}
		status := ratSimplex(t, basis, obj, usedCols, sol)
		if status == lp.Unbounded {
			return nil, fmt.Errorf("lp: exact phase 1 unbounded")
		}
		p1 := new(big.Rat)
		for i, b := range basis {
			if b >= artCol {
				p1.Add(p1, t[i][len(t[i])-1])
			}
		}
		if p1.Sign() > 0 {
			sol.Status = lp.Infeasible
			return sol, nil
		}
		for i := 0; i < len(t); i++ {
			if basis[i] < artCol {
				continue
			}
			pivoted := false
			for j := 0; j < artCol; j++ {
				if t[i][j].Sign() != 0 {
					ratPivot(t, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				t = append(t[:i], t[i+1:]...)
				basis = append(basis[:i], basis[i+1:]...)
				i--
			}
		}
		for i := range t {
			for j := artCol; j < artCol+nArt; j++ {
				t[i][j].SetInt64(0)
			}
		}
		usedCols = artCol
	}

	obj := make([]*big.Rat, usedCols)
	for j := range obj {
		obj[j] = new(big.Rat)
	}
	for j := 0; j < n; j++ {
		obj[j].SetFloat64(p.Objective[j])
	}
	status := ratSimplex(t, basis, obj, usedCols, sol)
	if status == lp.Unbounded {
		sol.Status = lp.Unbounded
		return sol, nil
	}
	sol.Status = lp.Optimal
	sol.X = make([]float64, n)
	for i, b := range basis {
		if b < n {
			v, _ := t[i][len(t[i])-1].Float64()
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

func ratSimplex(t [][]*big.Rat, basis []int, obj []*big.Rat, usedCols int, sol *lp.Solution) lp.Status {
	m := len(t)
	if m == 0 {
		return lp.Optimal
	}
	cols := len(t[0])
	z := make([]*big.Rat, cols)
	for j := range z {
		z[j] = new(big.Rat)
		if j < len(obj) {
			z[j].Set(obj[j])
		}
	}
	tmp := new(big.Rat)
	for i, b := range basis {
		cb := new(big.Rat)
		if b < len(obj) {
			cb.Set(obj[b])
		}
		if cb.Sign() != 0 {
			for j := 0; j < cols; j++ {
				z[j].Sub(z[j], tmp.Mul(cb, t[i][j]))
			}
		}
	}
	for {
		enter := -1
		for j := 0; j < usedCols; j++ {
			if z[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter == -1 {
			return lp.Optimal
		}
		leave := -1
		best := new(big.Rat)
		ratio := new(big.Rat)
		for i := 0; i < m; i++ {
			if t[i][enter].Sign() <= 0 {
				continue
			}
			ratio.Quo(t[i][cols-1], t[i][enter])
			cmp := 1
			if leave != -1 {
				cmp = ratio.Cmp(best)
			}
			if leave == -1 || cmp < 0 || (cmp == 0 && basis[i] < basis[leave]) {
				leave = i
				best.Set(ratio)
			}
		}
		if leave == -1 {
			return lp.Unbounded
		}
		ratPivot(t, basis, leave, enter)
		factor := new(big.Rat).Set(z[enter])
		if factor.Sign() != 0 {
			for j := 0; j < cols; j++ {
				z[j].Sub(z[j], tmp.Mul(factor, t[leave][j]))
			}
		}
		z[enter].SetInt64(0)
		sol.Iterations++
	}
}

func ratPivot(t [][]*big.Rat, basis []int, row, col int) {
	cols := len(t[row])
	p := new(big.Rat).Set(t[row][col])
	for j := 0; j < cols; j++ {
		t[row][j].Quo(t[row][j], p)
	}
	t[row][col].SetInt64(1)
	tmp := new(big.Rat)
	for i := range t {
		if i == row {
			continue
		}
		f := new(big.Rat).Set(t[i][col])
		if f.Sign() == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			t[i][j].Sub(t[i][j], tmp.Mul(f, t[row][j]))
		}
		t[i][col].SetInt64(0)
	}
	basis[row] = col
}
