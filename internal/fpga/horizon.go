package fpga

import (
	"slices"

	"strippack/internal/geom"
)

// runHorizon holds the time each device column becomes free, stored as
// the horizon's maximal constant runs in column order. It supports the
// primitives the online scheduler needs — assign (a placed task raises its
// columns to its end time), free (a completed or shed task lowers the
// columns it still owns) — plus bestWindow, which finds the placement the
// original implementation found by scanning all K·cols cells: the leftmost
// window minimizing the window maximum.
//
// Since completion events were added the horizon is NOT monotone: free and
// fill lower column values, so no operation may assume values only grow.
// bestWindow was audited for this (see DESIGN.md): it relies only on the
// run list being maximal and the horizon non-negative, both of which
// assign, free and fill preserve.
//
// Every operation works on the runs, never on single columns, so its cost
// is in S, the current run count, which is bounded by the tasks in flight
// rather than by K: bestWindow is O(S), assign and free are O(log S + S)
// (a binary search, then one splice), and the run list is what unlocks
// large-K sweeps in E12.
type runHorizon struct {
	n    int    // columns
	runs []hrun // maximal constant runs of horizon[0:n), in column order
	deq  []int32
	tmp  []hrun // free's replacement scratch
}

// hrun is a maximal constant run [start, end) of the horizon.
type hrun struct {
	start, end int
	val        float64
}

func newRunHorizon(n int) *runHorizon {
	return &runHorizon{n: n, runs: []hrun{{start: 0, end: n}}}
}

// find returns the index of the first run with end > c (run ends are
// strictly increasing).
func (h *runHorizon) find(c int) int {
	lo, hi := 0, len(h.runs)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.runs[mid].end > c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// assign sets horizon[l:r) = v, splicing the new run into the list and
// merging it with equal-valued neighbours so the list stays maximal.
func (h *runHorizon) assign(l, r int, v float64) {
	runs := h.runs
	i := h.find(l)
	j := i
	for j < len(runs) && runs[j].start < r {
		j++
	}
	// Replacement pieces: left remainder, the assigned run, right remainder —
	// then absorb equal-valued neighbors on both sides.
	var repl [3]hrun
	nr := 0
	mid := hrun{start: l, end: r, val: v}
	if i < j && runs[i].start < l {
		if runs[i].val == v {
			mid.start = runs[i].start
		} else {
			repl[nr] = hrun{start: runs[i].start, end: l, val: runs[i].val}
			nr++
		}
	}
	if i > 0 && runs[i-1].val == v && runs[i-1].end == mid.start {
		mid.start = runs[i-1].start
		i--
	}
	var right hrun
	hasRight := false
	if j > i && runs[j-1].end > r {
		if runs[j-1].val == v {
			mid.end = runs[j-1].end
		} else {
			right = hrun{start: r, end: runs[j-1].end, val: runs[j-1].val}
			hasRight = true
		}
	}
	if !hasRight && j < len(runs) && runs[j].val == v && runs[j].start == mid.end {
		mid.end = runs[j].end
		j++
	}
	repl[nr] = mid
	nr++
	if hasRight {
		repl[nr] = right
		nr++
	}
	h.runs = slices.Replace(runs, i, j, repl[:nr]...)
}

// free lowers horizon[l:r) to `to` on exactly those columns still at
// `from` — the columns whose last commitment is the task completing at
// time `to`. Columns already re-promised to a later task (value > from)
// are left alone: lowering them would let a new placement overlap the
// later commitment.
//
// The caller guarantees from >= to and that every column in [l, r) holds
// a value >= from (the completing task assigned `from` there and later
// assignments only raised it), so value == from identifies the columns
// the completing task still owns. Returns the number of columns lowered.
//
// The runs overlapping [l, r), widened by one neighbour on each side so
// lowered pieces can merge with them, are rebuilt in one pass and spliced
// back in place.
func (h *runHorizon) free(l, r int, from, to float64) int {
	if from == to {
		return 0
	}
	i := h.find(l)
	j, freed := i, 0
	for ; j < len(h.runs) && h.runs[j].start < r; j++ {
		if ru := h.runs[j]; ru.val == from {
			freed += min(ru.end, r) - max(ru.start, l)
		}
	}
	if freed == 0 {
		return 0
	}
	lo, hi := max(i-1, 0), min(j+1, len(h.runs))
	out := h.tmp[:0]
	add := func(start, end int, v float64) {
		if k := len(out) - 1; k >= 0 && out[k].val == v {
			out[k].end = end
			return
		}
		out = append(out, hrun{start: start, end: end, val: v})
	}
	for k := lo; k < hi; k++ {
		ru := h.runs[k]
		if k < i || k >= j || ru.val != from {
			add(ru.start, ru.end, ru.val)
			continue
		}
		if ru.start < l {
			add(ru.start, l, from)
		}
		add(max(ru.start, l), min(ru.end, r), to)
		if ru.end > r {
			add(r, ru.end, from)
		}
	}
	h.runs = slices.Replace(h.runs, lo, hi, out...)
	h.tmp = out[:0]
	return freed
}

// fill rebuilds the run list from a flat per-column horizon in O(K) —
// the inverse of values, used by RestoreScheduler. Columns beyond
// len(vals) reset to 0, matching the initial state.
func (h *runHorizon) fill(vals []float64) {
	h.runs = h.runs[:0]
	for c := 0; c < h.n; c++ {
		v := 0.0
		if c < len(vals) {
			v = vals[c]
		}
		if k := len(h.runs) - 1; k >= 0 && h.runs[k].val == v {
			h.runs[k].end = c + 1
			continue
		}
		h.runs = append(h.runs, hrun{start: c, end: c + 1, val: v})
	}
}

// maxAll is the horizon-wide maximum (the makespan). O(S).
func (h *runHorizon) maxAll() float64 {
	m := 0.0
	for _, r := range h.runs {
		m = max(m, r.val)
	}
	return m
}

// committedAbove returns the committed column-time ahead of `now`:
// sum over columns of max(horizon[c] - now, 0). O(S), so it is cheap
// enough to poll per submission.
func (h *runHorizon) committedAbove(now float64) float64 {
	total := 0.0
	for _, r := range h.runs {
		if r.val > now {
			total += (r.val - now) * float64(r.end-r.start)
		}
	}
	return total
}

// values appends the per-column horizon values to out (the snapshot
// serialization of the horizon — fill is its inverse). O(K).
func (h *runHorizon) values(out []float64) []float64 {
	for _, r := range h.runs {
		for c := r.start; c < r.end; c++ {
			out = append(out, r.val)
		}
	}
	return out
}

// bestWindow returns the leftmost width-column window minimizing
// max(floor, window max) — exactly the placement rule of the O(K·cols)
// scan it replaces, including its Eps tie tolerance: a later window wins
// only when it starts more than Eps earlier.
//
// Window maxima change only when a window edge crosses a run boundary, so
// each piece of the window-max step function starts at a run start or at
// (run start - width); evaluating those left endpoints, plus the last
// window, in ascending order reproduces the full scan. The candidates come
// pre-sorted from a two-stream merge (run starts, and run starts minus the
// width, are each already ascending), and window maxima come from a
// monotonic-deque sliding maximum over the runs, so a search costs O(S).
func (h *runHorizon) bestWindow(width int, floor float64) (start float64, col int) {
	runs := h.runs
	last := h.n - width
	// Sliding-window maximum over the candidate columns, which only move
	// right: deq holds run indices with strictly decreasing values; run
	// ends are strictly increasing, so expiring the front as the window
	// passes a run is sound.
	deq := h.deq[:0]
	head, ri := 0, 0
	bestCol := -1
	evaluate := func(c int) {
		for ri < len(runs) && runs[ri].start < c+width {
			v := runs[ri].val
			for len(deq) > head && runs[deq[len(deq)-1]].val <= v {
				deq = deq[:len(deq)-1]
			}
			deq = append(deq, int32(ri))
			ri++
		}
		for runs[deq[head]].end <= c {
			head++
		}
		v := runs[deq[head]].val
		if v < floor {
			v = floor
		}
		if bestCol == -1 || v < start-geom.Eps {
			start, bestCol = v, c
		}
	}
	// aEnd clips run starts to <= last; b starts at the first run whose
	// start-width candidate is >= 0. Both streams ascend, so a plain merge
	// (with dedup against the previous emission) yields the sorted,
	// deduplicated candidate set.
	aEnd := len(runs)
	for aEnd > 0 && runs[aEnd-1].start > last {
		aEnd--
	}
	b := 0
	for b < len(runs) && runs[b].start < width {
		b++
	}
	a, prev := 0, -1
	for a < aEnd || b < len(runs) {
		var c int
		switch {
		case a >= aEnd:
			c = runs[b].start - width
			b++
		case b >= len(runs) || runs[a].start <= runs[b].start-width:
			c = runs[a].start
			a++
		default:
			c = runs[b].start - width
			b++
		}
		if c == prev {
			continue
		}
		prev = c
		evaluate(c)
	}
	if last != prev {
		evaluate(last)
	}
	h.deq = deq[:0]
	return start, bestCol
}
