// Package release implements Section 3 of Augustine, Banerjee and Irani:
// the asymptotic PTAS for strip packing with release times, for instances
// with heights at most 1 and widths in [1/K, 1].
//
// The pipeline follows Algorithm 2 of the paper:
//
//  1. RoundReleases (Lemma 3.1): reduce to R+1 distinct release times on a
//     δ-grid, increasing OPTf by at most (1+1/R).
//  2. GroupWidths (Lemma 3.2): per release class, stack rectangles by
//     non-increasing width and round widths up to group thresholds, leaving
//     at most W distinct widths overall and increasing OPTf by at most
//     (1 + (R+1)K/W).
//  3. Configuration LP (Lemma 3.3): solve for per-phase configuration
//     heights; simplex returns a basic optimum with at most (W+1)(R+1)
//     occurrences.
//  4. ToIntegral (Lemma 3.4): realize each occurrence as reserved columns
//     and fill them greedily, adding at most 1 per occurrence to the height.
//
// Step 3 runs on one engine, an lp.Revised master (cg.go), loaded in one
// of two ways. SolveCG, which the APTAS and the bounds use, runs delayed
// column generation: it starts from the single-width configurations and
// prices new ones against the master duals with a bounded-knapsack
// dynamic program per phase, so configurations are generated on demand
// and never enumerated. SolveEnumerated, which the Kenyon-Rémila packer
// (internal/kr) uses, loads every width multiset fitting the strip
// (exponential in K) into the same master. The tests check both against
// the LP assembled eagerly over the enumeration and solved by the dense
// and exact-rational reference solvers of internal/lp/lptest.
//
// # Cross-solve column pool
//
// A configuration is a multiset of widths fitting the strip, so it is
// feasible for every instance sharing the (strip width, distinct width
// set) pair — the experiment grids and any long-running bound service
// solve hundreds of such siblings. Solver (solver.go) exploits this: it
// keeps a per-width-set pool (pool.go) of every configuration its solves
// have generated, bulk-loads the pool into each new solve's restricted
// master (one lp.Revised.AddColumns batch, after the singletons, in
// pool-insertion order, deduped by packed multiplicity vector), and
// appends what the solve generates back. Warm solves start near-optimal
// and typically converge in 1–3 pricing rounds instead of tens.
// BoundCache owns a Solver, so it memoizes the work of column generation
// across distinct instances as well as the answers to repeated ones, and
// caches errors so a failing instance is diagnosed once.
//
// # Crash start
//
// FractionalLowerBound and Solver (hence BoundCache) use only the optimal
// value, so their first master solve starts from a feasible basis written
// down in closed form (cgSolve.setCrashBasis, via
// lp.Revised.SetStartBasis) and skips phase 1. SolveCG, whose basic
// optimum APTAS rounds, keeps the artificial start.
//
// # Determinism contract
//
// A pooled or crash-started solve still runs column generation to
// optimality, so its height is the configuration LP's optimum regardless
// of which columns were seeded or which basis the master started from:
// both affect only the simplex path, perturbing results by LP round-off —
// within 1e-9 of the poolless SolveCG height, and within 1e-12 relative
// for the one-shot FractionalLowerBound (property- and fuzz-tested in
// bound_test.go and solver_test.go). Given a fixed solve sequence, the
// pool state and every result are fully reproducible; under concurrent
// use (RunGrid workers sharing a BoundCache) the interleaving may vary
// which pool snapshot a solve sees, moving results only within that same
// 1e-9 envelope, which the experiment tables' fixed-precision rendering
// absorbs — `make determinism` enforces byte-identity across worker
// counts and pool on/off end-to-end. SolveCG stays the reference oracle,
// and a Solver with CGOptions.DisablePool reproduces FractionalLowerBound
// on every solve.
package release

import (
	"fmt"
	"math"
	"slices"

	"strippack/internal/geom"
)

// RoundReleases implements Lemma 3.1: every release time is rounded *up* to
// the next multiple of δ = r_max/R, yielding at most R+1 distinct values
// (δ, 2δ, …, (R+1)δ). The returned instance has the same rectangles with
// release times no earlier than the originals, so any packing of it is
// feasible for the original. δ is returned for reporting. When the instance
// has no positive release time it is returned unchanged with δ = 0.
func RoundReleases(in *geom.Instance, R int) (*geom.Instance, float64, error) {
	if R < 1 {
		return nil, 0, fmt.Errorf("release: R must be >= 1, got %d", R)
	}
	rmax := in.MaxRelease()
	if rmax == 0 {
		return in.Clone(), 0, nil
	}
	delta := rmax / float64(R)
	out := in.Clone()
	for i := range out.Rects {
		j := math.Floor(out.Rects[i].Release / delta)
		out.Rects[i].Release = (j + 1) * delta
	}
	return out, delta, nil
}

// classKey groups rectangles by identical release time (with tolerance).
func classKey(r float64) float64 { return r }

// classes partitions rectangle indices by release time, returning the
// distinct release values in ascending order and the member indices per
// value.
func classes(in *geom.Instance) ([]float64, [][]int) {
	byRel := make(map[float64][]int)
	for i, r := range in.Rects {
		k := classKey(r.Release)
		byRel[k] = append(byRel[k], i)
	}
	vals := make([]float64, 0, len(byRel))
	for v := range byRel {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	members := make([][]int, len(vals))
	for j, v := range vals {
		members[j] = byRel[v]
	}
	return vals, members
}

// StackHeight returns H(S'): the height of the left-justified stacking of
// the given rectangles (total height, independent of order).
func StackHeight(in *geom.Instance, ids []int) float64 {
	var h float64
	for _, id := range ids {
		h += in.Rects[id].H
	}
	return h
}

// Stacking returns the rectangles of one release class sorted by
// non-increasing width together with the base height of each rectangle in
// the stack (Fig. 3 of the paper). Exposed for the grouping experiment E10.
//
// Equal widths keep the caller's ids order, which grouping determinism
// relies on. The sort breaks width ties on position in ids, so an
// unstable sort gives exactly the stable order.
func Stacking(in *geom.Instance, ids []int) (order []int, base []float64) {
	type key struct {
		w   float64
		pos int
	}
	keys := make([]key, len(ids))
	for k, id := range ids {
		keys[k] = key{in.Rects[id].W, k}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.w > b.w:
			return -1
		case a.w < b.w:
			return 1
		default:
			return a.pos - b.pos
		}
	})
	order = make([]int, len(ids))
	base = make([]float64, len(ids))
	y := 0.0
	for k, kk := range keys {
		id := ids[kk.pos]
		order[k] = id
		base[k] = y
		y += in.Rects[id].H
	}
	return order, base
}

// GroupWidths implements Lemma 3.2: within each release class the stacking
// is cut by groups horizontal lines; each rectangle's width is rounded up
// to the width of its group's threshold rectangle (the widest in the
// group). The result has at most groups distinct widths per release class.
// Heights and release times are unchanged, widths never decrease.
func GroupWidths(in *geom.Instance, groups int) (*geom.Instance, error) {
	if groups < 1 {
		return nil, fmt.Errorf("release: groups must be >= 1, got %d", groups)
	}
	out := in.Clone()
	_, members := classes(in)
	for _, ids := range members {
		if len(ids) == 0 {
			continue
		}
		order, base := Stacking(in, ids)
		H := StackHeight(in, ids)
		cut := H / float64(groups)
		// Walk the stack bottom-up; a rectangle is a threshold when a cut
		// line y = l*cut falls in [base, top) (cuts the interior or aligns
		// with the base). Each threshold starts a new group whose width is
		// the threshold's width.
		curWidth := in.Rects[order[0]].W
		for k, id := range order {
			b := base[k]
			t := b + in.Rects[id].H
			// Smallest l with l*cut >= b; threshold iff that line is < t.
			l := math.Ceil((b - geom.Eps) / cut)
			if line := l * cut; line >= b-geom.Eps && line < t-geom.Eps {
				curWidth = in.Rects[id].W
			}
			out.Rects[id].W = curWidth
		}
	}
	return out, nil
}

// Contained reports whether instance a is contained in instance b in the
// paper's stacking sense (Fig. 3): for every release class, the stacking of
// a's class fits under the stacking of b's class. Both instances must have
// the same release values. Used by experiment E10 to verify the chain
// P^inf ⊑ P(R) ⊑ P(R,W) ⊑ P^sup.
func Contained(a, b *geom.Instance) bool {
	va, ma := classes(a)
	vb, mb := classes(b)
	if len(va) != len(vb) {
		return false
	}
	for j := range va {
		if math.Abs(va[j]-vb[j]) > geom.Eps {
			return false
		}
		if !stackContained(a, ma[j], b, mb[j]) {
			return false
		}
	}
	return true
}

// stackContained checks that the width profile of a's stacking lies below
// (pointwise at most) b's profile at every height.
func stackContained(a *geom.Instance, idsA []int, b *geom.Instance, idsB []int) bool {
	ordA, baseA := Stacking(a, idsA)
	ordB, baseB := Stacking(b, idsB)
	// The stack profile is a non-increasing step function of y: width at
	// height y. Compare at every breakpoint of a.
	widthAt := func(in *geom.Instance, ord []int, base []float64, y float64) float64 {
		for k := len(ord) - 1; k >= 0; k-- {
			if base[k] <= y+geom.Eps && y < base[k]+in.Rects[ord[k]].H-geom.Eps {
				return in.Rects[ord[k]].W
			}
		}
		return 0
	}
	for k, id := range ordA {
		ys := []float64{baseA[k], baseA[k] + a.Rects[id].H/2}
		for _, y := range ys {
			if widthAt(a, ordA, baseA, y) > widthAt(b, ordB, baseB, y)+geom.Eps {
				return false
			}
		}
	}
	return true
}

// CheckWidthBounds verifies the paper's §3 precondition: heights at most 1
// and widths within [1/K, 1] (scaled by the strip width).
func CheckWidthBounds(in *geom.Instance, K int) error {
	if K < 1 {
		return fmt.Errorf("release: K must be >= 1, got %d", K)
	}
	w := in.StripWidth()
	for i, r := range in.Rects {
		if r.H > 1+geom.Eps {
			return fmt.Errorf("release: rect %d height %g exceeds 1", i, r.H)
		}
		if r.W < w/float64(K)-geom.Eps {
			return fmt.Errorf("release: rect %d width %g below strip/K = %g", i, r.W, w/float64(K))
		}
	}
	return nil
}

// DistinctWidths returns the sorted distinct widths of the instance
// (tolerance-deduplicated), in a slice of their own size rather than the
// n-capacity sort buffer, since every Model keeps it.
func DistinctWidths(in *geom.Instance) []float64 {
	ws := make([]float64, 0, in.N())
	for _, r := range in.Rects {
		ws = append(ws, r.W)
	}
	slices.Sort(ws)
	out := ws[:0]
	for _, w := range ws {
		if len(out) == 0 || w-out[len(out)-1] > geom.Eps {
			out = append(out, w)
		}
	}
	return slices.Clone(out)
}

// DistinctReleases returns the sorted distinct release times including 0,
// right-sized like DistinctWidths. (Exact-equality dedup, matching the
// release-class partition of classes; sort+dedup instead of the map so the
// LP hot path stays cheap.)
func DistinctReleases(in *geom.Instance) []float64 {
	vals := make([]float64, 0, in.N()+1)
	for _, r := range in.Rects {
		vals = append(vals, r.Release)
	}
	slices.Sort(vals)
	out := vals[:0]
	for _, v := range vals {
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	if len(out) == 0 || out[0] > geom.Eps {
		out = append(out, 0)
		copy(out[1:], out[:len(out)-1])
		out[0] = 0
	}
	return slices.Clone(out)
}
