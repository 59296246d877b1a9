package binpack

import (
	"fmt"
	"math"
	"math/bits"

	"strippack/internal/dag"
)

// PrecResult is the outcome of a precedence-constrained bin packer.
type PrecResult struct {
	Assignment
	// Skips counts shelves closed because the ready queue was empty (the
	// paper's "skip" events of Lemma 2.5). Only PrecNextFit populates it.
	Skips int
	// Order lists items in placement order; items sharing a bin appear in
	// the order they were put there. Shelf layouts use it for x positions.
	Order []int
}

// PrecNextFit is the paper's algorithm F (§2.2) expressed on bins: keep one
// open bin; an item is available when all its predecessors sit in *closed*
// bins; fill the open bin from the head of the availability queue until the
// head does not fit or the queue is empty, then close the bin and
// repopulate. The number of skip-closures is at most OPT (Lemma 2.5) and
// the total number of bins is at most 3·OPT (Theorem 2.6).
func PrecNextFit(sizes []float64, g *dag.Graph) (*PrecResult, error) {
	if err := checkSizes(sizes); err != nil {
		return nil, err
	}
	n := len(sizes)
	if g.N() != n {
		return nil, fmt.Errorf("binpack: graph has %d vertices for %d items", g.N(), n)
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	res := &PrecResult{Assignment: Assignment{Bin: make([]int, n)}}
	for i := range res.Bin {
		res.Bin[i] = -1
	}
	placed := 0
	cur := 0 // index of the open bin
	load := 0.0
	inQueue := make([]bool, n)
	var queue []int
	// repopulate appends items that became available: all predecessors in
	// bins < cur (closed bins).
	repopulate := func() {
		for v := 0; v < n; v++ {
			if res.Bin[v] != -1 || inQueue[v] {
				continue
			}
			ok := true
			for _, u := range g.In(v) {
				if res.Bin[u] == -1 || res.Bin[u] >= cur {
					ok = false
					break
				}
			}
			if ok {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	repopulate()
	for placed < n {
		progressed := false
		for len(queue) > 0 {
			head := queue[0]
			if load+sizes[head] > 1+Eps {
				break
			}
			queue = queue[1:]
			res.Bin[head] = cur
			res.Order = append(res.Order, head)
			load += sizes[head]
			placed++
			progressed = true
		}
		if placed == n {
			break
		}
		if len(queue) == 0 {
			res.Skips++
		}
		if !progressed && len(queue) > 0 {
			// Head does not fit in a fresh bin only if its size > 1, which
			// checkSizes precludes; still guard against livelock.
			if load == 0 {
				return nil, fmt.Errorf("binpack: item %d does not fit an empty bin", queue[0])
			}
		}
		cur++
		load = 0
		repopulate()
		if len(queue) == 0 && placed < n {
			// Cannot happen on a DAG (see package comment); guard anyway.
			return nil, fmt.Errorf("binpack: no available items with %d unplaced", n-placed)
		}
	}
	res.NumBins = cur + 1
	return res, nil
}

// PrecFirstFit processes items in topological order and puts each item into
// the earliest bin strictly after all its predecessors' bins that has room,
// opening new bins as needed. This is the natural First-Fit analogue used as
// a stronger heuristic next to PrecNextFit.
func PrecFirstFit(sizes []float64, g *dag.Graph) (*PrecResult, error) {
	if err := checkSizes(sizes); err != nil {
		return nil, err
	}
	n := len(sizes)
	if g.N() != n {
		return nil, fmt.Errorf("binpack: graph has %d vertices for %d items", g.N(), n)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	res := &PrecResult{Assignment: Assignment{Bin: make([]int, n)}}
	var loads []float64
	for _, v := range order {
		first := 0
		for _, u := range g.In(v) {
			if res.Bin[u]+1 > first {
				first = res.Bin[u] + 1
			}
		}
		placedAt := -1
		for b := first; b < len(loads); b++ {
			if loads[b]+sizes[v] <= 1+Eps {
				placedAt = b
				break
			}
		}
		if placedAt == -1 {
			loads = append(loads, 0)
			placedAt = len(loads) - 1
		}
		loads[placedAt] += sizes[v]
		res.Bin[v] = placedAt
		res.Order = append(res.Order, v)
	}
	res.NumBins = len(loads)
	return res, nil
}

// LevelFFD partitions items by DAG level and packs each level with
// FirstFitDecreasing into its own consecutive range of bins. This mirrors
// the level-by-level strategy in the resource-constrained-scheduling
// literature (GGJY): precedence is satisfied because bins of level l all
// precede bins of level l+1.
func LevelFFD(sizes []float64, g *dag.Graph) (*PrecResult, error) {
	if err := checkSizes(sizes); err != nil {
		return nil, err
	}
	n := len(sizes)
	if g.N() != n {
		return nil, fmt.Errorf("binpack: graph has %d vertices for %d items", g.N(), n)
	}
	lvl, err := g.Levels()
	if err != nil {
		return nil, err
	}
	maxLvl := -1
	for _, l := range lvl {
		if l > maxLvl {
			maxLvl = l
		}
	}
	res := &PrecResult{Assignment: Assignment{Bin: make([]int, n)}}
	base := 0
	for l := 0; l <= maxLvl; l++ {
		var items []int
		for v := 0; v < n; v++ {
			if lvl[v] == l {
				items = append(items, v)
			}
		}
		sub := make([]float64, len(items))
		for i, v := range items {
			sub[i] = sizes[v]
		}
		a, err := FirstFitDecreasing(sub)
		if err != nil {
			return nil, err
		}
		for i, v := range items {
			res.Bin[v] = base + a.Bin[i]
		}
		// Within a level, record placement in decreasing-size order to
		// match FFD's left-to-right layout.
		for _, i := range decreasingOrder(sub) {
			res.Order = append(res.Order, items[i])
		}
		base += a.NumBins
	}
	res.NumBins = base
	return res, nil
}

// PrecLowerBound returns max(⌈Σ sizes⌉, longest path length): both the area
// bound and the chain bound from Lemma 2.5's observation that a path of
// length p forces p bins.
func PrecLowerBound(sizes []float64, g *dag.Graph) (int, error) {
	ones := make([]float64, len(sizes))
	for i := range ones {
		ones[i] = 1
	}
	f, err := g.LongestPathF(ones)
	if err != nil {
		return 0, err
	}
	depth := int(dag.MaxF(f))
	l1 := LowerBoundL1(sizes)
	if depth > l1 {
		return depth, nil
	}
	return l1, nil
}

// ExactPrec computes the optimal precedence-constrained bin count for small
// instances (n <= maxN, default cap 12) by DP over item subsets: dp[mask] is
// the minimum number of bins packing exactly the items in mask such that
// mask is closed under predecessors, filling bins one at a time.
func ExactPrec(sizes []float64, g *dag.Graph, maxN int) (int, error) {
	if err := checkSizes(sizes); err != nil {
		return 0, err
	}
	n := len(sizes)
	if g.N() != n {
		return 0, fmt.Errorf("binpack: graph has %d vertices for %d items", g.N(), n)
	}
	if maxN <= 0 {
		maxN = 12
	}
	if n > maxN {
		return 0, fmt.Errorf("binpack: instance size %d exceeds exact-solver cap %d", n, maxN)
	}
	if _, err := g.TopoOrder(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	predMask := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.In(v) {
			predMask[v] |= 1 << uint(u)
		}
	}
	full := uint32(1)<<uint(n) - 1
	const inf = math.MaxInt32
	dp := make([]int32, full+1)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	// Iterate masks in increasing popcount order implicitly: a mask's
	// predecessors in the DP are strict submasks, and increasing integer
	// order suffices since submask < mask numerically.
	for mask := uint32(0); mask <= full; mask++ {
		if dp[mask] == inf {
			continue
		}
		if mask == full {
			break
		}
		// Available items: not in mask, all preds in mask.
		var avail uint32
		for v := 0; v < n; v++ {
			b := uint32(1) << uint(v)
			if mask&b == 0 && predMask[v]&^mask == 0 {
				avail |= b
			}
		}
		// Enumerate non-empty subsets of avail that fit one bin.
		for sub := avail; sub > 0; sub = (sub - 1) & avail {
			var sz float64
			for s := sub; s > 0; s &= s - 1 {
				sz += sizes[bits.TrailingZeros32(s)]
			}
			if sz > 1+Eps {
				continue
			}
			next := mask | sub
			if dp[mask]+1 < dp[next] {
				dp[next] = dp[mask] + 1
			}
		}
	}
	if dp[full] == inf {
		return 0, fmt.Errorf("binpack: exact DP failed (unexpected)")
	}
	return int(dp[full]), nil
}
