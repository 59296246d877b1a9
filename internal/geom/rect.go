// Package geom provides the geometric primitives shared by every strip
// packing algorithm in this repository: rectangles, placements, packings,
// and validators that check non-overlap, strip containment, precedence and
// release-time feasibility.
//
// The strip has a fixed width (normalized to 1 in the paper) and unbounded
// height; height models time in the FPGA scheduling interpretation.
package geom

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Eps is the tolerance used by all geometric comparisons. Two rectangles
// whose interiors overlap by less than Eps in either dimension are treated
// as merely touching, which is legal in a packing.
const Eps = 1e-9

// Rect is an axis-aligned rectangle to be packed. In the scheduling
// interpretation W is the fraction of the resource a task needs, H is its
// duration and Release is the earliest time the task may start.
type Rect struct {
	// ID identifies the rectangle inside its Instance; it equals the
	// rectangle's index in Instance.Rects.
	ID int
	// Name is an optional human-readable label used by examples and the CLI.
	Name string
	// W is the width, in (0, strip width].
	W float64
	// H is the height (duration), > 0.
	H float64
	// Release is the earliest height at which the rectangle's bottom edge
	// may be placed. Zero means unconstrained.
	Release float64
}

// Area returns W*H.
func (r Rect) Area() float64 { return r.W * r.H }

// Placement is the position of a rectangle's lower-left corner in the strip.
type Placement struct {
	X float64
	Y float64
}

// Top returns the y coordinate of the top edge of rectangle r placed at p.
func (p Placement) Top(r Rect) float64 { return p.Y + r.H }

// Instance is a strip packing problem instance: a set of rectangles, a strip
// width, and (optionally) precedence edges. Edge (u, v) means rectangle v
// must be placed entirely above rectangle u (y_v >= y_u + h_u).
type Instance struct {
	// Rects holds the rectangles; Rects[i].ID == i.
	Rects []Rect
	// Width is the strip width; 0 is interpreted as 1 (paper normalization).
	Width float64
	// Prec lists precedence edges as [2]int{from, to} pairs.
	Prec [][2]int
}

// NewInstance builds an instance over the given rectangles with strip width
// width (pass 1 for the paper's normalized strip). Rectangle IDs are
// assigned from slice order.
func NewInstance(width float64, rects []Rect) *Instance {
	in := &Instance{Width: width, Rects: make([]Rect, len(rects))}
	copy(in.Rects, rects)
	for i := range in.Rects {
		in.Rects[i].ID = i
	}
	return in
}

// StripWidth returns the effective strip width (1 when Width is unset).
func (in *Instance) StripWidth() float64 {
	if in.Width <= 0 {
		return 1
	}
	return in.Width
}

// N returns the number of rectangles.
func (in *Instance) N() int { return len(in.Rects) }

// AddEdge appends precedence edge from -> to.
func (in *Instance) AddEdge(from, to int) { in.Prec = append(in.Prec, [2]int{from, to}) }

// Area returns the total area of all rectangles.
func (in *Instance) Area() float64 {
	var a float64
	for _, r := range in.Rects {
		a += r.Area()
	}
	return a
}

// AreaLowerBound returns AREA(S)/width: total area divided by strip width,
// a lower bound on the height of any packing.
func (in *Instance) AreaLowerBound() float64 { return in.Area() / in.StripWidth() }

// MaxHeight returns the tallest rectangle height (a trivial lower bound).
func (in *Instance) MaxHeight() float64 {
	var h float64
	for _, r := range in.Rects {
		if r.H > h {
			h = r.H
		}
	}
	return h
}

// MaxRelease returns the latest release time, a lower bound for release-time
// instances (some rectangle must start at or after it).
func (in *Instance) MaxRelease() float64 {
	var r float64
	for _, s := range in.Rects {
		if s.Release > r {
			r = s.Release
		}
	}
	return r
}

// Validate performs static sanity checks on the instance itself (not on a
// packing): positive dimensions, widths within the strip, releases
// non-negative, edges in range.
func (in *Instance) Validate() error {
	w := in.StripWidth()
	for i, r := range in.Rects {
		if r.ID != i {
			return fmt.Errorf("geom: rect %d has ID %d (want slice index)", i, r.ID)
		}
		if !(r.W > 0) || !(r.H > 0) {
			return fmt.Errorf("geom: rect %d has non-positive dimensions %gx%g", i, r.W, r.H)
		}
		if r.W > w+Eps {
			return fmt.Errorf("geom: rect %d width %g exceeds strip width %g", i, r.W, w)
		}
		if r.Release < 0 {
			return fmt.Errorf("geom: rect %d has negative release %g", i, r.Release)
		}
		if math.IsNaN(r.W) || math.IsNaN(r.H) || math.IsNaN(r.Release) {
			return fmt.Errorf("geom: rect %d has NaN field", i)
		}
	}
	for _, e := range in.Prec {
		if e[0] < 0 || e[0] >= len(in.Rects) || e[1] < 0 || e[1] >= len(in.Rects) {
			return fmt.Errorf("geom: precedence edge %v out of range", e)
		}
		if e[0] == e[1] {
			return fmt.Errorf("geom: self-loop on rect %d", e[0])
		}
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Width: in.Width}
	out.Rects = append([]Rect(nil), in.Rects...)
	out.Prec = append([][2]int(nil), in.Prec...)
	return out
}

// Packing is a complete solution: one placement per rectangle of an
// instance, indexed by rectangle ID.
type Packing struct {
	Instance *Instance
	Pos      []Placement
}

// NewPacking allocates an empty packing for in with all placements at the
// origin; callers are expected to set every position.
func NewPacking(in *Instance) *Packing {
	return &Packing{Instance: in, Pos: make([]Placement, in.N())}
}

// Height returns the packing height max_s(y_s + h_s), the objective value.
func (p *Packing) Height() float64 {
	var h float64
	for i, r := range p.Instance.Rects {
		if t := p.Pos[i].Top(r); t > h {
			h = t
		}
	}
	return h
}

// Set records the placement of rectangle id.
func (p *Packing) Set(id int, x, y float64) { p.Pos[id] = Placement{X: x, Y: y} }

// ErrOverlap reports that two rectangles overlap.
var ErrOverlap = errors.New("geom: rectangles overlap")

// Validate checks that the packing is feasible: every rectangle inside the
// strip, no two rectangles overlap, every precedence edge and release time
// respected. It returns the first violation found.
func (p *Packing) Validate() error {
	in := p.Instance
	if len(p.Pos) != in.N() {
		return fmt.Errorf("geom: packing has %d placements for %d rects", len(p.Pos), in.N())
	}
	w := in.StripWidth()
	for i, r := range in.Rects {
		pos := p.Pos[i]
		if pos.X < -Eps || pos.X+r.W > w+Eps {
			return fmt.Errorf("geom: rect %d at x=%g width %g outside strip [0,%g]", i, pos.X, r.W, w)
		}
		if pos.Y < -Eps {
			return fmt.Errorf("geom: rect %d below the strip base (y=%g)", i, pos.Y)
		}
		if pos.Y+Eps < r.Release {
			return fmt.Errorf("geom: rect %d placed at y=%g before release %g", i, pos.Y, r.Release)
		}
	}
	if err := p.OverlapSweep(); err != nil {
		return err
	}
	for _, e := range in.Prec {
		u, v := e[0], e[1]
		if p.Pos[u].Y+in.Rects[u].H > p.Pos[v].Y+Eps {
			return fmt.Errorf("geom: precedence %d->%d violated: top(%d)=%g > y(%d)=%g",
				u, v, u, p.Pos[u].Y+in.Rects[u].H, v, p.Pos[v].Y)
		}
	}
	return nil
}

// RectsOverlap reports whether the interiors of two placed rectangles
// intersect (touching edges are not an overlap).
func RectsOverlap(a Rect, pa Placement, b Rect, pb Placement) bool {
	return pa.X+Eps < pb.X+b.W && pb.X+Eps < pa.X+a.W &&
		pa.Y+Eps < pb.Y+b.H && pb.Y+Eps < pa.Y+a.H
}

// OverlapSweep detects any pairwise overlap in O(n log n) using a bottom-to-
// top sweep over rectangle start/end events. The active set holds the x
// intervals of rectangles crossing the sweep line; since an overlap is
// reported the moment it is created, the active set is always internally
// disjoint, so membership and overlap queries are binary searches.
func (p *Packing) OverlapSweep() error {
	in := p.Instance
	type event struct {
		y     float64
		start bool
		id    int
	}
	// Rectangles of height <= Eps cannot penetrate anything by more than
	// Eps vertically against an equally thin rectangle, and their shrunken
	// sweep interval would be degenerate; handle them by direct pairwise
	// checks against the thick rectangles instead.
	var thin []int
	evs := make([]event, 0, 2*in.N())
	for i, r := range in.Rects {
		if r.H <= Eps {
			thin = append(thin, i)
			continue
		}
		// Shrink each rectangle by Eps/2 on top and bottom so that, exactly
		// like RectsOverlap, only overlaps exceeding Eps are reported; this
		// also absorbs one-ulp differences between a top edge and a bottom
		// edge computed through different summation orders.
		evs = append(evs,
			event{y: p.Pos[i].Y + Eps/2, start: true, id: i},
			event{y: p.Pos[i].Y + r.H - Eps/2, start: false, id: i})
	}
	for _, i := range thin {
		for j, r := range in.Rects {
			if j == i || r.H <= Eps {
				continue
			}
			if RectsOverlap(in.Rects[i], p.Pos[i], r, p.Pos[j]) {
				return fmt.Errorf("%w: %d and %d", ErrOverlap, i, j)
			}
		}
	}
	slices.SortFunc(evs, func(a, b event) int {
		switch {
		case a.y < b.y:
			return -1
		case a.y > b.y:
			return 1
		case a.start != b.start:
			// Removals before insertions at equal y: a top edge touching a
			// bottom edge is not an overlap.
			if !a.start {
				return -1
			}
			return 1
		default:
			return a.id - b.id
		}
	})
	var active intervalSet
	for _, e := range evs {
		x0 := p.Pos[e.id].X
		x1 := x0 + in.Rects[e.id].W
		if !e.start {
			active.remove(x0, e.id)
			continue
		}
		if other, hit := active.overlapping(x0, x1); hit {
			return fmt.Errorf("%w: %d and %d", ErrOverlap, other, e.id)
		}
		active.insert(x0, x1, e.id)
	}
	return nil
}

// intervalSet is a sorted slice of pairwise-disjoint x intervals.
type intervalSet struct {
	ivs []interval
}

type interval struct {
	left, right float64
	id          int
}

func (s *intervalSet) search(left float64) int {
	return sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].left >= left })
}

func (s *intervalSet) insert(left, right float64, id int) {
	i := s.search(left)
	s.ivs = append(s.ivs, interval{})
	copy(s.ivs[i+1:], s.ivs[i:])
	s.ivs[i] = interval{left: left, right: right, id: id}
}

func (s *intervalSet) remove(left float64, id int) {
	i := s.search(left - Eps)
	for ; i < len(s.ivs); i++ {
		if s.ivs[i].id == id {
			s.ivs = append(s.ivs[:i], s.ivs[i+1:]...)
			return
		}
		if s.ivs[i].left > left+Eps {
			break
		}
	}
	// Fallback linear scan guards against floating-point drift in callers.
	for j := range s.ivs {
		if s.ivs[j].id == id {
			s.ivs = append(s.ivs[:j], s.ivs[j+1:]...)
			return
		}
	}
}

// overlapping reports an interval in the set whose interior intersects
// (x0, x1). Because the set is disjoint, only the predecessor of x0 and the
// first interval at or right of x0 can intersect.
func (s *intervalSet) overlapping(x0, x1 float64) (int, bool) {
	i := s.search(x0)
	if i > 0 && s.ivs[i-1].right > x0+Eps {
		return s.ivs[i-1].id, true
	}
	if i < len(s.ivs) && s.ivs[i].left+Eps < x1 {
		return s.ivs[i].id, true
	}
	return -1, false
}
