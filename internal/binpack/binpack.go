// Package binpack implements one-dimensional bin packing, the substrate for
// the paper's uniform-height results (§2.2): a shelf of height 1 in the
// strip is a bin of capacity 1, so precedence-constrained strip packing with
// uniform heights is precedence-constrained bin packing (Garey, Graham,
// Johnson and Yao's resource constrained scheduling).
//
// The package provides the precedence-constrained packers used in §2.2:
// precedence Next-Fit (the paper's algorithm F viewed on bins), precedence
// First-Fit, and a level-by-level FFD in the style of GGJY; an exact DP for
// small precedence instances; the unconstrained First-Fit and
// First-Fit-Decreasing that the level packer runs per level; and the size
// lower bound.
package binpack

import (
	"fmt"
	"math"
	"slices"
)

// Eps is the capacity tolerance.
const Eps = 1e-9

// Assignment maps item index -> bin index; bins are numbered from 0.
type Assignment struct {
	Bin []int
	// NumBins is 1 + max bin index (0 for empty input).
	NumBins int
}

func checkSizes(sizes []float64) error {
	for i, s := range sizes {
		if !(s > 0) || s > 1+Eps || math.IsNaN(s) {
			return fmt.Errorf("binpack: item %d has size %g outside (0,1]", i, s)
		}
	}
	return nil
}

// FirstFit places each item into the lowest-indexed bin that fits, opening a
// new bin when none does. 1.7 asymptotic.
func FirstFit(sizes []float64) (*Assignment, error) {
	if err := checkSizes(sizes); err != nil {
		return nil, err
	}
	a := &Assignment{Bin: make([]int, len(sizes))}
	var loads []float64
	for i, s := range sizes {
		placed := false
		for b, l := range loads {
			if l+s <= 1+Eps {
				loads[b] += s
				a.Bin[i] = b
				placed = true
				break
			}
		}
		if !placed {
			loads = append(loads, s)
			a.Bin[i] = len(loads) - 1
		}
	}
	a.NumBins = len(loads)
	return a, nil
}

// decreasingOrder returns item indices sorted by non-increasing size with a
// stable index tie-break.
func decreasingOrder(sizes []float64) []int {
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	// idx starts as the identity, so the index tie-break keeps the
	// reflection-free sort stable.
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case sizes[a] > sizes[b]:
			return -1
		case sizes[a] < sizes[b]:
			return 1
		default:
			return a - b
		}
	})
	return idx
}

// permuted applies an online algorithm to a permutation of the items and
// maps the assignment back to original indices.
func permuted(sizes []float64, order []int, algo func([]float64) (*Assignment, error)) (*Assignment, error) {
	perm := make([]float64, len(sizes))
	for i, j := range order {
		perm[i] = sizes[j]
	}
	pa, err := algo(perm)
	if err != nil {
		return nil, err
	}
	a := &Assignment{Bin: make([]int, len(sizes)), NumBins: pa.NumBins}
	for i, j := range order {
		a.Bin[j] = pa.Bin[i]
	}
	return a, nil
}

// FirstFitDecreasing is FirstFit on items sorted by non-increasing size;
// asymptotic ratio 11/9.
func FirstFitDecreasing(sizes []float64) (*Assignment, error) {
	return permuted(sizes, decreasingOrder(sizes), FirstFit)
}

// LowerBoundL1 is the size bound ⌈Σ sizes⌉.
func LowerBoundL1(sizes []float64) int {
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	return int(math.Ceil(sum - Eps))
}
