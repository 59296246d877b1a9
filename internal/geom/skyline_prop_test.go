package geom

import (
	"math"
	"math/rand"
	"testing"
)

// supportY returns the y at which a rectangle of width w whose left edge is
// at segment index i would rest: the max contour height over [x_i, x_i+w).
// ok is false when the rectangle would stick out of the strip. It is the
// O(m) reference for the windowed scan inside BestPosition.
func (s *Skyline) supportY(i int, w float64) (y float64, ok bool) {
	x0 := s.segs[i].x
	if x0+w > s.width+Eps {
		return 0, false
	}
	end := x0 + w
	for j := i; j < len(s.segs) && s.segs[j].x+Eps < end; j++ {
		if s.segs[j].y > y {
			y = s.segs[j].y
		}
	}
	return y, true
}

// bestPositionBrute is the O(m²) reference BestPosition: one supportY scan
// per candidate segment, the exact algorithm the deque version replaced.
func (s *Skyline) bestPositionBrute(w, h, minY float64) (x, y float64, ok bool) {
	bestY := math.Inf(1)
	bestX := math.Inf(1)
	found := false
	for i := range s.segs {
		sy, fits := s.supportY(i, w)
		if !fits {
			continue
		}
		if sy < minY {
			sy = minY
		}
		if sy < bestY-Eps || (sy < bestY+Eps && s.segs[i].x < bestX-Eps) {
			bestY = sy
			bestX = s.segs[i].x
			found = true
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestX, bestY, true
}

// checkSkylineInvariants asserts the structural contract of the contour:
// segments are sorted, strictly positive in width, gap-free, cover exactly
// [0,width), carry no unmerged equal-height neighbours, and the cached
// MaxY/MinY equal a full rescan.
func checkSkylineInvariants(t *testing.T, s *Skyline) {
	t.Helper()
	segs := s.Segments()
	if len(segs) == 0 {
		t.Fatal("skyline has no segments")
	}
	if math.Abs(segs[0][0]) > Eps {
		t.Fatalf("first segment starts at %g, want 0", segs[0][0])
	}
	scanMax, scanMin := math.Inf(-1), math.Inf(1)
	for i, g := range segs {
		x, w, y := g[0], g[1], g[2]
		if w <= Eps {
			t.Fatalf("segment %d has sliver width %g", i, w)
		}
		if i > 0 {
			prev := segs[i-1]
			if math.Abs(prev[0]+prev[1]-x) > Eps {
				t.Fatalf("gap/overlap between segment %d (ends %g) and %d (starts %g)",
					i-1, prev[0]+prev[1], i, x)
			}
			if math.Abs(prev[2]-y) <= Eps {
				t.Fatalf("segments %d and %d have equal height %g but were not merged", i-1, i, y)
			}
		}
		scanMax = math.Max(scanMax, y)
		scanMin = math.Min(scanMin, y)
	}
	last := segs[len(segs)-1]
	if math.Abs(last[0]+last[1]-s.Width()) > Eps {
		t.Fatalf("contour ends at %g, want width %g", last[0]+last[1], s.Width())
	}
	if s.MaxY() != scanMax {
		t.Fatalf("cached MaxY %g != scanned %g", s.MaxY(), scanMax)
	}
	if s.MinY() != scanMin {
		t.Fatalf("cached MinY %g != scanned %g", s.MinY(), scanMin)
	}
}

// placeSequence drives one skyline through the placement sequence encoded
// by rng, cross-checking the deque BestPosition against the brute-force
// reference and the invariants after every Place.
func placeSequence(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	s := NewSkyline(1)
	for step := 0; step < n; step++ {
		w := 0.02 + 0.48*rng.Float64()
		h := 0.02 + 0.48*rng.Float64()
		minY := 0.0
		if rng.Intn(4) == 0 {
			minY = rng.Float64() * s.MaxY()
		}
		x, y, ok := s.BestPosition(w, h, minY)
		bx, by, bok := s.bestPositionBrute(w, h, minY)
		if ok != bok || x != bx || y != by {
			t.Fatalf("step %d: BestPosition(%g,%g,%g) = (%g,%g,%v), brute force = (%g,%g,%v)\ncontour: %s",
				step, w, h, minY, x, y, ok, bx, by, bok, s)
		}
		if !ok {
			continue
		}
		s.Place(x, w, y, h)
		checkSkylineInvariants(t, s)
	}
}

// TestSkylineDequeMatchesBruteForce runs many random placement sequences.
func TestSkylineDequeMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		placeSequence(t, rand.New(rand.NewSource(int64(trial))), 60)
	}
}

// TestSkylineNarrowAndWideMix stresses windows spanning many segments.
func TestSkylineNarrowAndWideMix(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := NewSkyline(1)
	for step := 0; step < 300; step++ {
		var w float64
		if step%3 == 0 {
			w = 0.5 + 0.5*rng.Float64() // wide: window covers most segments
		} else {
			w = 0.01 + 0.05*rng.Float64() // narrow: fragments the contour
		}
		h := 0.01 + 0.2*rng.Float64()
		x, y, ok := s.BestPosition(w, h, 0)
		bx, by, bok := s.bestPositionBrute(w, h, 0)
		if ok != bok || x != bx || y != by {
			t.Fatalf("step %d: deque (%g,%g,%v) != brute (%g,%g,%v)", step, x, y, ok, bx, by, bok)
		}
		if ok {
			s.Place(x, w, y, h)
			checkSkylineInvariants(t, s)
		}
	}
}

// FuzzSkylinePlace lets the fuzzer pick the seed and sequence length; the
// body is the same cross-check as the deterministic property test, so any
// divergence between the deque scan and the reference, or any broken
// invariant, is a crash with a reproducer.
func FuzzSkylinePlace(f *testing.F) {
	f.Add(int64(1), uint8(20))
	f.Add(int64(424242), uint8(80))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		placeSequence(t, rand.New(rand.NewSource(seed)), int(n)%128)
	})
}
