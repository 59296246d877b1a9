package packing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"strippack/internal/geom"
)

// Verify builds a throwaway instance/packing pair for res and validates its
// geometry.
func Verify(width float64, rects []geom.Rect, res *Result) error {
	in := geom.NewInstance(width, rects)
	p := geom.NewPacking(in)
	copy(p.Pos, res.Pos)
	return p.Validate()
}
func randRects(rng *rand.Rand, n int, maxW, maxH float64) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{
			W: 0.05 + (maxW-0.05)*rng.Float64(),
			H: 0.05 + (maxH-0.05)*rng.Float64(),
		}
	}
	return rects
}

func area(rects []geom.Rect) float64 {
	var a float64
	for _, r := range rects {
		a += r.Area()
	}
	return a
}

func maxH(rects []geom.Rect) float64 {
	var h float64
	for _, r := range rects {
		if r.H > h {
			h = r.H
		}
	}
	return h
}

func TestNFDHSingleRect(t *testing.T) {
	res, err := NFDH(1, []geom.Rect{{W: 0.5, H: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Height != 2 {
		t.Fatalf("height = %g, want 2", res.Height)
	}
	if res.Pos[0] != (geom.Placement{X: 0, Y: 0}) {
		t.Fatalf("pos = %+v", res.Pos[0])
	}
}

func TestNFDHShelves(t *testing.T) {
	// Two rects of width 0.6 cannot share a shelf.
	res, err := NFDH(1, []geom.Rect{{W: 0.6, H: 1}, {W: 0.6, H: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Height-2) > geom.Eps {
		t.Fatalf("height = %g, want 2", res.Height)
	}
}

func TestNFDHEmptyInput(t *testing.T) {
	res, err := NFDH(1, nil)
	if err != nil || res.Height != 0 {
		t.Fatalf("empty: err=%v h=%g", err, res.Height)
	}
}

func TestCheckRects(t *testing.T) {
	if _, err := NFDH(0, nil); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NFDH(1, []geom.Rect{{W: 2, H: 1}}); err == nil {
		t.Error("too-wide rect accepted")
	}
	if _, err := FFDH(1, []geom.Rect{{W: 0.5, H: 0}}); err == nil {
		t.Error("zero-height rect accepted")
	}
}

// TestNFDHAreaBound verifies the subroutine-A property that Theorem 2.3
// relies on: NFDH(S) <= 2*AREA(S)/width + h_max.
func TestNFDHAreaBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		rects := randRects(rng, n, 1.0, 1.0)
		res, err := NFDH(1, rects)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2*area(rects) + maxH(rects)
		if res.Height > bound+1e-9 {
			t.Fatalf("trial %d: NFDH %g > bound %g", trial, res.Height, bound)
		}
	}
}

// TestFFDHAreaBound: FFDH is at least as good as shelf area accounting
// 1.7*AREA + h_max (we test the looser 2*AREA + h_max, which must hold).
func TestFFDHAreaBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rects := randRects(rng, 1+rng.Intn(40), 1.0, 1.0)
		res, err := FFDH(1, rects)
		if err != nil {
			t.Fatal(err)
		}
		if res.Height > 2*area(rects)+maxH(rects)+1e-9 {
			t.Fatalf("trial %d: FFDH %g too tall", trial, res.Height)
		}
	}
}

// TestAllAlgorithmsProduceValidPackings is the core safety property: every
// registered packer yields an overlap-free in-strip packing, and the
// reported height matches the placements.
func TestAllAlgorithmsProduceValidPackings(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for name, algo := range Registry() {
		for trial := 0; trial < 60; trial++ {
			width := []float64{1, 2, 0.7}[trial%3]
			rects := randRects(rng, 1+rng.Intn(30), 0.6*width, 1.0)
			res, err := algo(width, rects)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			if err := Verify(width, rects, res); err != nil {
				t.Fatalf("%s trial %d: invalid packing: %v", name, trial, err)
			}
			var top float64
			for i, r := range rects {
				if y := res.Pos[i].Y + r.H; y > top {
					top = y
				}
			}
			if math.Abs(top-res.Height) > 1e-9 {
				t.Fatalf("%s trial %d: reported height %g, actual %g", name, trial, res.Height, top)
			}
			if res.Height < area(rects)/width-1e-9 {
				t.Fatalf("%s trial %d: height below area bound", name, trial)
			}
		}
	}
}

// TestHeightAtLeastLowerBoundsQuick: property-based check that all packers
// respect the area and max-height lower bounds.
func TestHeightAtLeastLowerBoundsQuick(t *testing.T) {
	algos := Registry()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rects := randRects(rng, 1+rng.Intn(15), 0.9, 1.0)
		lb := math.Max(area(rects), maxH(rects))
		for _, algo := range algos {
			res, err := algo(1, rects)
			if err != nil || res.Height < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFFDHNeverWorseThanNFDHOnShelfCount(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	worse := 0
	for trial := 0; trial < 100; trial++ {
		rects := randRects(rng, 5+rng.Intn(30), 0.9, 1.0)
		nf, err := NFDH(1, rects)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := FFDH(1, rects)
		if err != nil {
			t.Fatal(err)
		}
		if ff.Height > nf.Height+1e-9 {
			worse++
		}
	}
	if worse > 0 {
		t.Fatalf("FFDH taller than NFDH on %d/100 instances", worse)
	}
}

func TestSleatorWideStack(t *testing.T) {
	rects := []geom.Rect{{W: 0.8, H: 1}, {W: 0.7, H: 2}, {W: 0.3, H: 0.5}}
	res, err := Sleator(1, rects)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(1, rects, res); err != nil {
		t.Fatal(err)
	}
	// Wide rects stacked from 0: heights 1 then 2.
	if res.Pos[0].Y != 0 || res.Pos[1].Y != 1 {
		t.Fatalf("wide stack wrong: %+v", res.Pos)
	}
	if res.Pos[2].Y < 3-geom.Eps {
		t.Fatalf("narrow rect below wide stack: %+v", res.Pos[2])
	}
}

func TestSleatorRatioBound(t *testing.T) {
	// Sleator guarantees 2.5*OPT; test against max(area, hmax) lower bound
	// with factor 3 slack to avoid flakiness on the conservative variant.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		rects := randRects(rng, 2+rng.Intn(30), 1.0, 1.0)
		res, err := Sleator(1, rects)
		if err != nil {
			t.Fatal(err)
		}
		lb := math.Max(area(rects), maxH(rects))
		if res.Height > 3*lb+1+1e-9 {
			t.Fatalf("trial %d: Sleator %g vs lb %g", trial, res.Height, lb)
		}
	}
}

func TestBLDHMatchesInputOrderIndependence(t *testing.T) {
	// BLDH must produce the same height regardless of input order.
	rng := rand.New(rand.NewSource(20))
	rects := randRects(rng, 20, 0.5, 1.0)
	res1, err := BLDH(1, rects)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]geom.Rect(nil), rects...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	res2, err := BLDH(1, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	// Heights can differ only through ties among equal heights; allow tiny
	// slack but require same shelf-scale result.
	if math.Abs(res1.Height-res2.Height) > 0.25*res1.Height {
		t.Fatalf("BLDH order-sensitive: %g vs %g", res1.Height, res2.Height)
	}
}

func TestBottomLeftDropsIntoGaps(t *testing.T) {
	rects := []geom.Rect{
		{W: 0.4, H: 1}, {W: 0.4, H: 1}, // leave a 0.2 gap
		{W: 0.2, H: 1}, // must drop into the gap
	}
	res, err := BottomLeft(1, rects)
	if err != nil {
		t.Fatal(err)
	}
	if res.Height > 1+geom.Eps {
		t.Fatalf("BL failed to use the gap: height %g", res.Height)
	}
}

func TestRegistryAndNames(t *testing.T) {
	reg := Registry()
	for _, name := range []string{"nfdh", "ffdh", "bottomleft", "bldh", "sleator"} {
		if reg[name] == nil {
			t.Errorf("%s missing from registry", name)
		}
	}
	if len(reg) != 5 {
		t.Fatalf("registry has %d packers, want 5", len(reg))
	}
}

func TestWiderStripNeverHurtsNFDH(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 50; trial++ {
		rects := randRects(rng, 10, 0.5, 1.0)
		a, err := NFDH(1, rects)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NFDH(2, rects)
		if err != nil {
			t.Fatal(err)
		}
		if b.Height > a.Height+1e-9 {
			t.Fatalf("trial %d: widening the strip increased NFDH height", trial)
		}
	}
}

// TestNFDHIntoMatchesNFDH: on the identity id set the index-based fast path
// must reproduce NFDH exactly (same tie-break: height desc, id asc).
func TestNFDHIntoMatchesNFDH(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		rects := randRects(rng, 1+rng.Intn(40), 0.9, 1.0)
		want, err := NFDH(1, rects)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int32, len(rects))
		for i := range ids {
			ids[i] = int32(i)
		}
		pos := make([]geom.Placement, len(rects))
		h, err := NFDHInto(1, rects, ids, pos)
		if err != nil {
			t.Fatal(err)
		}
		if h != want.Height {
			t.Fatalf("trial %d: height %g, NFDH %g", trial, h, want.Height)
		}
		for i := range rects {
			if pos[i] != want.Pos[i] {
				t.Fatalf("trial %d: rect %d at %+v, NFDH %+v", trial, i, pos[i], want.Pos[i])
			}
		}
	}
}

// TestNFDHIntoSubset packs a strict subset by index and validates the band
// geometry on the selected rectangles only.
func TestNFDHIntoSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 40; trial++ {
		rects := randRects(rng, 5+rng.Intn(40), 0.9, 1.0)
		var ids []int32
		for i := range rects {
			if rng.Float64() < 0.5 {
				ids = append(ids, int32(i))
			}
		}
		pos := make([]geom.Placement, len(rects))
		h, err := NFDHInto(1, rects, ids, pos)
		if err != nil {
			t.Fatal(err)
		}
		sel := make([]geom.Rect, len(ids))
		res := &Result{Pos: make([]geom.Placement, len(ids)), Height: h}
		for k, id := range ids {
			sel[k] = rects[id]
			res.Pos[k] = pos[id]
		}
		if err := Verify(1, sel, res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, id := range ids {
			if top := pos[id].Y + rects[id].H; top > h+geom.Eps {
				t.Fatalf("trial %d: rect %d tops at %g above band height %g", trial, id, top, h)
			}
		}
	}
}

// TestNFDHIntoZeroAlloc pins the no-copy contract of the DC middle-band
// fast path.
func TestNFDHIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rects := randRects(rng, 300, 0.4, 1.0)
	ids := make([]int32, len(rects))
	for i := range ids {
		ids[i] = int32(i)
	}
	pos := make([]geom.Placement, len(rects))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NFDHInto(1, rects, ids, pos); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NFDHInto allocates %.1f times per call, want 0", allocs)
	}
}

func TestNFDHIntoErrors(t *testing.T) {
	rects := []geom.Rect{{W: 0.5, H: 1}, {W: 2, H: 1}}
	pos := make([]geom.Placement, 2)
	if _, err := NFDHInto(0, rects, []int32{0}, pos); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NFDHInto(1, rects, []int32{1}, pos); err == nil {
		t.Fatal("over-wide rect accepted")
	}
	if h, err := NFDHInto(1, rects, nil, pos); err != nil || h != 0 {
		t.Fatalf("empty ids: h=%g err=%v", h, err)
	}
}
