// Package packing implements classical strip packing algorithms without
// precedence or release constraints. They serve two roles in the
// reproduction: as the subroutine A required by the paper's DC algorithm —
// Theorem 2.3 needs A(y,S') <= 2·AREA(S') + max h, a bound NFDH satisfies —
// and as baselines in the experiment harness.
//
// All packers take a strip width and a slice of rectangles and return
// placements aligned with the input slice (positions are relative to the
// strip base at y=0; callers shift by their own offset).
package packing

import (
	"fmt"
	"slices"

	"strippack/internal/geom"
)

// Result is the output of a strip packer: one placement per input rectangle
// (by slice index) and the total height of the arrangement.
type Result struct {
	Pos    []geom.Placement
	Height float64
}

// Algorithm is a strip packing routine. Implementations must place all
// rectangles within [0,width] x [0,∞) without overlap.
type Algorithm func(width float64, rects []geom.Rect) (*Result, error)

func checkRects(width float64, rects []geom.Rect) error {
	if width <= 0 {
		return fmt.Errorf("packing: non-positive strip width %g", width)
	}
	for i, r := range rects {
		if !(r.W > 0) || !(r.H > 0) {
			return fmt.Errorf("packing: rect %d has non-positive dimensions", i)
		}
		if r.W > width+geom.Eps {
			return fmt.Errorf("packing: rect %d width %g exceeds strip %g", i, r.W, width)
		}
	}
	return nil
}

// heightDescCmp orders rect indices by non-increasing height, ties broken
// on the original index — which makes a plain (unstable but
// reflection-free) sort produce the stable order.
func heightDescCmp(rects []geom.Rect) func(a, b int) int {
	return func(a, b int) int {
		switch {
		case rects[a].H > rects[b].H:
			return -1
		case rects[a].H < rects[b].H:
			return 1
		default:
			return a - b
		}
	}
}

// byHeightDesc returns indices sorted by non-increasing height (stable).
func byHeightDesc(rects []geom.Rect) []int {
	idx := make([]int, len(rects))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, heightDescCmp(rects))
	return idx
}

// NFDH is Next-Fit Decreasing Height: sort by non-increasing height, fill
// shelves left to right, close a shelf when the next rectangle does not fit.
// Guarantee: height <= 2·AREA/width + h_max, the property Theorem 2.3
// requires of its subroutine A.
func NFDH(width float64, rects []geom.Rect) (*Result, error) {
	if err := checkRects(width, rects); err != nil {
		return nil, err
	}
	res := &Result{Pos: make([]geom.Placement, len(rects))}
	if len(rects) == 0 {
		return res, nil
	}
	order := byHeightDesc(rects)
	shelfY := 0.0
	shelfH := rects[order[0]].H
	x := 0.0
	for _, i := range order {
		r := rects[i]
		if x+r.W > width+geom.Eps {
			// Close the shelf; the first rect of a shelf sets its height.
			shelfY += shelfH
			shelfH = r.H
			x = 0
		}
		res.Pos[i] = geom.Placement{X: x, Y: shelfY}
		x += r.W
	}
	res.Height = shelfY + shelfH
	return res, nil
}

// IndexAlgorithm is a strip packer operating on a subset of a shared
// rectangle slice selected by ids: it packs rects[id] for each id in ids and
// writes each placement to pos[id] (pos must have len(rects) entries; other
// entries are untouched). Positions are relative to the band base at y=0,
// exactly like Algorithm. Because the caller owns both the selection and the
// result array, no rectangles are copied and no result struct is allocated —
// this is the fast path the DC recursion packs its middle bands through.
// Implementations may reorder ids in place.
type IndexAlgorithm func(width float64, rects []geom.Rect, ids []int32, pos []geom.Placement) (height float64, err error)

// NFDHInto is the index-based NFDH: identical shelf discipline to NFDH, but
// packing rects[id] for id in ids into the caller-owned pos array without
// copying rectangles or allocating. ids is reordered in place (sorted by
// non-increasing height, ties on id ascending). Returns the band height.
func NFDHInto(width float64, rects []geom.Rect, ids []int32, pos []geom.Placement) (float64, error) {
	if width <= 0 {
		return 0, fmt.Errorf("packing: non-positive strip width %g", width)
	}
	if len(ids) == 0 {
		return 0, nil
	}
	for _, id := range ids {
		r := rects[id]
		if !(r.W > 0) || !(r.H > 0) {
			return 0, fmt.Errorf("packing: rect %d has non-positive dimensions", id)
		}
		if r.W > width+geom.Eps {
			return 0, fmt.Errorf("packing: rect %d width %g exceeds strip %g", id, r.W, width)
		}
	}
	slices.SortFunc(ids, func(a, b int32) int {
		switch {
		case rects[a].H > rects[b].H:
			return -1
		case rects[a].H < rects[b].H:
			return 1
		default:
			return int(a - b)
		}
	})
	shelfY := 0.0
	shelfH := rects[ids[0]].H
	x := 0.0
	for _, id := range ids {
		r := rects[id]
		if x+r.W > width+geom.Eps {
			// Close the shelf; the first rect of a shelf sets its height.
			shelfY += shelfH
			shelfH = r.H
			x = 0
		}
		pos[id] = geom.Placement{X: x, Y: shelfY}
		x += r.W
	}
	return shelfY + shelfH, nil
}

// IndexOf adapts a slice-based Algorithm to the index-based interface by
// copying the selected rectangles into a fresh slice. It allocates per call
// and exists so non-default DC subroutines (the E9 ablation variants) keep
// working; the hot path uses NFDHInto directly.
func IndexOf(alg Algorithm) IndexAlgorithm {
	return func(width float64, rects []geom.Rect, ids []int32, pos []geom.Placement) (float64, error) {
		sel := make([]geom.Rect, len(ids))
		for k, id := range ids {
			sel[k] = rects[id]
		}
		res, err := alg(width, sel)
		if err != nil {
			return 0, err
		}
		for k, id := range ids {
			pos[id] = res.Pos[k]
		}
		return res.Height, nil
	}
}

// shelf is an open FFDH shelf.
type shelf struct {
	y, h, x float64
}

// FFDH is First-Fit Decreasing Height: like NFDH but each rectangle goes to
// the first (lowest) shelf with room. Asymptotic ratio 1.7.
func FFDH(width float64, rects []geom.Rect) (*Result, error) {
	if err := checkRects(width, rects); err != nil {
		return nil, err
	}
	res := &Result{Pos: make([]geom.Placement, len(rects))}
	if len(rects) == 0 {
		return res, nil
	}
	var shelves []shelf
	top := 0.0
	for _, i := range byHeightDesc(rects) {
		r := rects[i]
		placed := false
		for k := range shelves {
			if shelves[k].x+r.W <= width+geom.Eps && r.H <= shelves[k].h+geom.Eps {
				res.Pos[i] = geom.Placement{X: shelves[k].x, Y: shelves[k].y}
				shelves[k].x += r.W
				placed = true
				break
			}
		}
		if !placed {
			shelves = append(shelves, shelf{y: top, h: r.H, x: r.W})
			res.Pos[i] = geom.Placement{X: 0, Y: top}
			top += r.H
		}
	}
	res.Height = top
	return res, nil
}

// BottomLeft packs rectangles in the given order with the skyline
// bottom-left rule: each rectangle goes to the position minimizing its top
// edge, ties broken leftmost.
func BottomLeft(width float64, rects []geom.Rect) (*Result, error) {
	if err := checkRects(width, rects); err != nil {
		return nil, err
	}
	res := &Result{Pos: make([]geom.Placement, len(rects))}
	sky := geom.NewSkyline(width)
	for i, r := range rects {
		x, y, ok := sky.BestPosition(r.W, r.H, 0)
		if !ok {
			return nil, fmt.Errorf("packing: no position for rect %d", i)
		}
		sky.Place(x, r.W, y, r.H)
		res.Pos[i] = geom.Placement{X: x, Y: y}
	}
	res.Height = sky.MaxY()
	return res, nil
}

// BLDH is BottomLeft applied in decreasing-height order, usually a strictly
// better heuristic than raw BottomLeft.
func BLDH(width float64, rects []geom.Rect) (*Result, error) {
	if err := checkRects(width, rects); err != nil {
		return nil, err
	}
	order := byHeightDesc(rects)
	perm := make([]geom.Rect, len(rects))
	for k, i := range order {
		perm[k] = rects[i]
	}
	pr, err := BottomLeft(width, perm)
	if err != nil {
		return nil, err
	}
	res := &Result{Pos: make([]geom.Placement, len(rects)), Height: pr.Height}
	for k, i := range order {
		res.Pos[i] = pr.Pos[k]
	}
	return res, nil
}

// Sleator implements Sleator's 1980 split algorithm (absolute ratio 2.5):
// rectangles wider than half the strip are stacked at the bottom; the rest
// are sorted by non-increasing height, one level is laid across the strip,
// and the remainder is distributed greedily onto the shorter of the two
// half-width columns.
func Sleator(width float64, rects []geom.Rect) (*Result, error) {
	if err := checkRects(width, rects); err != nil {
		return nil, err
	}
	res := &Result{Pos: make([]geom.Placement, len(rects))}
	if len(rects) == 0 {
		return res, nil
	}
	half := width / 2
	var wide, narrow []int
	for i, r := range rects {
		if r.W > half+geom.Eps {
			wide = append(wide, i)
		} else {
			narrow = append(narrow, i)
		}
	}
	y := 0.0
	for _, i := range wide {
		res.Pos[i] = geom.Placement{X: 0, Y: y}
		y += rects[i].H
	}
	// Sort narrow by non-increasing height.
	slices.SortFunc(narrow, heightDescCmp(rects))
	// One level across the strip at height y.
	x := 0.0
	k := 0
	levelTop := y
	for ; k < len(narrow); k++ {
		r := rects[narrow[k]]
		if x+r.W > width+geom.Eps {
			break
		}
		res.Pos[narrow[k]] = geom.Placement{X: x, Y: y}
		if y+r.H > levelTop {
			levelTop = y + r.H
		}
		x += r.W
	}
	// Two columns: [0,half) and [half,width). Column tops start at the top
	// of the tallest rectangle whose placement intersects the column; the
	// classical description uses the level top for both.
	leftTop, rightTop := levelTop, levelTop
	if k < len(narrow) {
		// Heights of the level part within each half determine the column
		// starts; using levelTop for both is the conservative variant.
		for ; k < len(narrow); k++ {
			r := rects[narrow[k]]
			if leftTop <= rightTop {
				res.Pos[narrow[k]] = geom.Placement{X: 0, Y: leftTop}
				leftTop += r.H
			} else {
				res.Pos[narrow[k]] = geom.Placement{X: half, Y: rightTop}
				rightTop += r.H
			}
		}
	}
	res.Height = maxf(levelTop, maxf(leftTop, rightTop))
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Registry maps algorithm names to the unconstrained packers, which the
// packing and exact tests iterate over.
func Registry() map[string]Algorithm {
	return map[string]Algorithm{
		"nfdh":       NFDH,
		"ffdh":       FFDH,
		"bottomleft": BottomLeft,
		"bldh":       BLDH,
		"sleator":    Sleator,
	}
}
