package geom

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Width returns the strip width the skyline spans.
func (s *Skyline) Width() float64 { return s.width }

// String renders the contour compactly for failure messages.
func (s *Skyline) String() string {
	var b strings.Builder
	for i, g := range s.segs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "[%.3g,%.3g)@%.3g", g.x, g.x+g.w, g.y)
	}
	return b.String()
}

// MinY returns the lowest contour level.
func (s *Skyline) MinY() float64 { return s.minY }

// Segments returns a copy of the contour as (x, width, y) triples.
func (s *Skyline) Segments() [][3]float64 {
	out := make([][3]float64, len(s.segs))
	for i, g := range s.segs {
		out[i] = [3]float64{g.x, g.w, g.y}
	}
	return out
}

func TestNewSkylineFlat(t *testing.T) {
	s := NewSkyline(1)
	if s.MaxY() != 0 || s.MinY() != 0 {
		t.Fatalf("fresh skyline not flat: max=%g min=%g", s.MaxY(), s.MinY())
	}
	if s.Width() != 1 {
		t.Fatalf("Width = %g", s.Width())
	}
	if got := len(s.Segments()); got != 1 {
		t.Fatalf("fresh skyline has %d segments", got)
	}
}

func TestSkylinePlaceRaisesContour(t *testing.T) {
	s := NewSkyline(1)
	s.Place(0, 0.5, 0, 2)
	if got := s.MaxY(); got != 2 {
		t.Fatalf("MaxY = %g, want 2", got)
	}
	if got := s.MinY(); got != 0 {
		t.Fatalf("MinY = %g, want 0 (right half untouched)", got)
	}
}

func TestSkylineBestPositionPrefersLowest(t *testing.T) {
	s := NewSkyline(1)
	s.Place(0, 0.5, 0, 2) // left half at 2, right half at 0
	x, y, ok := s.BestPosition(0.5, 1, 0)
	if !ok {
		t.Fatal("no position found")
	}
	if x != 0.5 || y != 0 {
		t.Fatalf("BestPosition = (%g,%g), want (0.5,0)", x, y)
	}
}

func TestSkylineBestPositionTieBreaksLeft(t *testing.T) {
	s := NewSkyline(1)
	// Flat contour: the left-most x must win.
	x, y, ok := s.BestPosition(0.3, 1, 0)
	if !ok || x != 0 || y != 0 {
		t.Fatalf("BestPosition = (%g,%g,%v), want (0,0,true)", x, y, ok)
	}
}

func TestSkylineBestPositionRespectsMinY(t *testing.T) {
	s := NewSkyline(1)
	_, y, ok := s.BestPosition(0.5, 1, 3.5)
	if !ok || y < 3.5 {
		t.Fatalf("BestPosition ignored minY: y=%g ok=%v", y, ok)
	}
}

func TestSkylineTooWide(t *testing.T) {
	s := NewSkyline(1)
	if _, _, ok := s.BestPosition(1.5, 1, 0); ok {
		t.Fatal("placement wider than strip accepted")
	}
}

func TestSkylineExactFit(t *testing.T) {
	s := NewSkyline(1)
	s.Place(0, 0.4, 0, 1)
	s.Place(0.6, 0.4, 0, 1)
	// A width-0.2 rect should drop into the middle gap at y=0.
	x, y, ok := s.BestPosition(0.2, 1, 0)
	if !ok || math.Abs(x-0.4) > Eps || y != 0 {
		t.Fatalf("gap fill = (%g,%g,%v), want (0.4,0,true)", x, y, ok)
	}
}

func TestSkylineMergesSegments(t *testing.T) {
	s := NewSkyline(1)
	s.Place(0, 0.5, 0, 1)
	s.Place(0.5, 0.5, 0, 1)
	if got := len(s.Segments()); got != 1 {
		t.Fatalf("adjacent equal-height segments not merged: %d segments (%s)", got, s)
	}
	if s.MinY() != 1 {
		t.Fatalf("MinY = %g, want 1", s.MinY())
	}
}

// TestSkylinePackingIsValid packs random rectangles bottom-left and checks
// the resulting packing validates — the skyline must never produce overlaps.
func TestSkylinePackingIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(25)
		rects := make([]Rect, n)
		for i := range rects {
			rects[i] = Rect{W: 0.05 + 0.45*rng.Float64(), H: 0.05 + 0.5*rng.Float64()}
		}
		in := NewInstance(1, rects)
		p := NewPacking(in)
		s := NewSkyline(1)
		for i, r := range rects {
			x, y, ok := s.BestPosition(r.W, r.H, 0)
			if !ok {
				t.Fatalf("no position for rect %d", i)
			}
			s.Place(x, r.W, y, r.H)
			p.Set(i, x, y)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: skyline packing invalid: %v", trial, err)
		}
		if math.Abs(s.MaxY()-p.Height()) > 1e-9 {
			t.Fatalf("trial %d: skyline MaxY %g != packing height %g", trial, s.MaxY(), p.Height())
		}
	}
}

// TestSkylineInvariants checks structural invariants under random placement
// sequences: segments sorted, disjoint, covering [0, width].
func TestSkylineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSkyline(1)
		for k := 0; k < 30; k++ {
			w := 0.05 + 0.6*rng.Float64()
			h := 0.05 + 0.5*rng.Float64()
			x, y, ok := s.BestPosition(w, h, 0)
			if !ok {
				return false
			}
			s.Place(x, w, y, h)
			segs := s.Segments()
			cover := 0.0
			for i, g := range segs {
				cover += g[1]
				if i > 0 && math.Abs(segs[i-1][0]+segs[i-1][1]-g[0]) > 1e-9 {
					return false // gap or overlap in contour
				}
			}
			if math.Abs(cover-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSkylineMonotone: MaxY never decreases as rectangles are placed.
func TestSkylineMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSkyline(1)
	last := 0.0
	for k := 0; k < 200; k++ {
		w := 0.05 + 0.4*rng.Float64()
		h := 0.05 + 0.3*rng.Float64()
		x, y, ok := s.BestPosition(w, h, 0)
		if !ok {
			t.Fatal("no position")
		}
		s.Place(x, w, y, h)
		if s.MaxY() < last-Eps {
			t.Fatalf("MaxY decreased from %g to %g", last, s.MaxY())
		}
		last = s.MaxY()
	}
}
