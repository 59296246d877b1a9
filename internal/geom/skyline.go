package geom

import "math"

// Skyline maintains the upper contour of a partial packing: a sequence of
// horizontal segments spanning the strip from x=0 to x=width. It supports
// the bottom-left placement rule used by the BL heuristic and by the shelf
// packers when they need a compact representation of free space.
//
// BestPosition runs in O(m) per query (m = segment count) via a monotonic
// deque, and Place splices in-place into a reused scratch buffer, so the
// structure is allocation-free in steady state. The contour's maximum and
// minimum are cached fields maintained by Place, so MaxY is O(1) and
// BestPosition's cutoff needs no scan.
//
// The zero value is not usable; construct with NewSkyline.
type Skyline struct {
	width float64
	// segs are maximal horizontal segments, sorted by x, covering [0,width).
	segs []skySeg
	// scratch is the spare segment buffer Place splices into; segs and
	// scratch are swapped after every placement so neither is reallocated.
	scratch []skySeg
	// deque is the reusable index buffer for the sliding-window maximum in
	// BestPosition.
	deque []int
	// maxY and minY cache the contour extrema; Place keeps them current.
	maxY float64
	minY float64
}

type skySeg struct {
	x float64 // left edge
	w float64 // width
	y float64 // height of the contour over [x, x+w)
}

// NewSkyline returns a flat skyline of the given strip width at height 0.
func NewSkyline(width float64) *Skyline {
	return &Skyline{width: width, segs: []skySeg{{x: 0, w: width, y: 0}}}
}

// MaxY returns the highest contour level.
func (s *Skyline) MaxY() float64 { return s.maxY }

// BestPosition returns the bottom-left-most position for a rectangle of
// width w and height h, optionally at or above minY (release time support).
// It returns the chosen x and y. The position minimizes the resulting top
// edge y+h, breaking ties by smaller x. ok is false only if w exceeds the
// strip width.
//
// The support height of every candidate window [x_i, x_i+w) is the maximum
// contour level inside it. Both window edges move right monotonically as i
// grows, so all supports are computed in one pass with a monotonic deque
// (classic sliding-window maximum): O(m) total instead of the O(m²) of
// one scan per candidate (supportY, the tests' reference).
func (s *Skyline) BestPosition(w, h, minY float64) (x, y float64, ok bool) {
	bestY := math.Inf(1)
	bestX := math.Inf(1)
	found := false
	// No candidate can rest below the contour minimum (or the minY floor),
	// and ties are broken leftmost, so the scan can stop as soon as the
	// incumbent reaches that bound — an exact cutoff, not a heuristic.
	floor := s.minY
	if minY > floor {
		floor = minY
	}
	if cap(s.deque) < len(s.segs) {
		s.deque = make([]int, len(s.segs))
	}
	dq := s.deque[:cap(s.deque)]
	head, tail := 0, 0 // live deque entries are dq[head:tail]
	r := 0             // segments [0,r) have been offered to the deque
	for i := range s.segs {
		x0 := s.segs[i].x
		if x0+w > s.width+Eps {
			break // segs are sorted by x, so no later candidate fits either
		}
		end := x0 + w
		// Evict indices that slid out of the window on the left.
		for head < tail && dq[head] < i {
			head++
		}
		// Admit segments whose left edge enters the window on the right,
		// keeping deque heights strictly decreasing front to back. Each
		// segment is pushed at most once, so dq never overflows.
		for ; r < len(s.segs) && s.segs[r].x+Eps < end; r++ {
			for head < tail && s.segs[dq[tail-1]].y <= s.segs[r].y {
				tail--
			}
			dq[tail] = r
			tail++
		}
		var sy float64
		if head < tail {
			sy = s.segs[dq[head]].y
		} // else degenerate w <= Eps: empty window rests at 0, as supportY does
		if sy < minY {
			sy = minY
		}
		if sy < bestY-Eps || (sy < bestY+Eps && x0 < bestX-Eps) {
			bestY = sy
			bestX = x0
			found = true
			if bestY <= floor+Eps {
				break
			}
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestX, bestY, true
}

// Place raises the contour over [x, x+w) to y+h, recording that a rectangle
// of width w and height h was placed with its bottom-left corner at (x, y).
// The caller is responsible for choosing a supported y (>= contour).
//
// The new contour is spliced directly into the scratch buffer in sorted
// order — untouched left segments, left remainder, the raised segment,
// right remainder, untouched right segments — merging equal-height
// neighbours on the fly, then the buffers are swapped. No allocation occurs
// once the buffers have grown to their working size.
func (s *Skyline) Place(x, w, y, h float64) {
	top := y + h
	end := x + w
	out := s.scratch[:0]
	// push appends a segment, dropping slivers and merging with an
	// equal-height abutting predecessor (same rules as the old normalize).
	push := func(g skySeg) []skySeg {
		if g.w <= Eps {
			return out
		}
		if n := len(out); n > 0 && math.Abs(out[n-1].y-g.y) <= Eps && math.Abs(out[n-1].x+out[n-1].w-g.x) <= Eps {
			out[n-1].w += g.w
			return out
		}
		return append(out, g)
	}
	placedDone := false
	for _, g := range s.segs {
		gEnd := g.x + g.w
		if gEnd <= x+Eps {
			out = push(g) // entirely left of the placement
			continue
		}
		if g.x >= end-Eps {
			if !placedDone {
				out = push(skySeg{x: x, w: w, y: top})
				placedDone = true
			}
			out = push(g) // entirely right of the placement
			continue
		}
		// g overlaps [x, end).
		if g.x < x-Eps {
			out = push(skySeg{x: g.x, w: x - g.x, y: g.y})
		}
		if !placedDone {
			out = push(skySeg{x: x, w: w, y: top})
			placedDone = true
		}
		if gEnd > end+Eps {
			out = push(skySeg{x: end, w: gEnd - end, y: g.y})
		}
	}
	if !placedDone {
		out = push(skySeg{x: x, w: w, y: top})
	}
	s.scratch = s.segs[:0]
	s.segs = out
	// Refresh the cached extrema from the rebuilt contour. This pass stays
	// O(m) worst case but is branch-cheap; the placement itself can only
	// raise maxY, while minY must be rescanned because the lowest segment
	// may just have been covered.
	maxY, minY := out[0].y, out[0].y
	for _, g := range out[1:] {
		if g.y > maxY {
			maxY = g.y
		}
		if g.y < minY {
			minY = g.y
		}
	}
	s.maxY = maxY
	s.minY = minY
}
