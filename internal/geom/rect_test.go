package geom

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// OverlapNaive is the O(n^2) reference overlap check that the sweep-line
// OverlapSweep is cross-validated against.
func (p *Packing) OverlapNaive() error {
	in := p.Instance
	for i := 0; i < in.N(); i++ {
		for j := i + 1; j < in.N(); j++ {
			if RectsOverlap(in.Rects[i], p.Pos[i], in.Rects[j], p.Pos[j]) {
				return fmt.Errorf("%w: %d and %d", ErrOverlap, i, j)
			}
		}
	}
	return nil
}

func TestRectArea(t *testing.T) {
	r := Rect{W: 0.5, H: 4}
	if got := r.Area(); got != 2 {
		t.Fatalf("Area = %g, want 2", got)
	}
}

func TestPlacementTop(t *testing.T) {
	r := Rect{W: 0.25, H: 3}
	p := Placement{X: 0.5, Y: 1}
	if got := p.Top(r); got != 4 {
		t.Errorf("Top = %g, want 4", got)
	}
}

func TestNewInstanceAssignsIDs(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1}, {W: 0.25, H: 2}})
	for i, r := range in.Rects {
		if r.ID != i {
			t.Errorf("rect %d has ID %d", i, r.ID)
		}
	}
}

func TestStripWidthDefaultsToOne(t *testing.T) {
	in := &Instance{}
	if got := in.StripWidth(); got != 1 {
		t.Fatalf("StripWidth = %g, want 1", got)
	}
	in.Width = 2.5
	if got := in.StripWidth(); got != 2.5 {
		t.Fatalf("StripWidth = %g, want 2.5", got)
	}
}

func TestInstanceAggregates(t *testing.T) {
	in := NewInstance(1, []Rect{
		{W: 0.5, H: 2, Release: 1},
		{W: 0.25, H: 4, Release: 3},
	})
	if got, want := in.Area(), 0.5*2+0.25*4; math.Abs(got-want) > 1e-12 {
		t.Errorf("Area = %g, want %g", got, want)
	}
	if got := in.MaxRelease(); got != 3 {
		t.Errorf("MaxRelease = %g, want 3", got)
	}
	if got, want := in.AreaLowerBound(), in.Area(); math.Abs(got-want) > 1e-12 {
		t.Errorf("AreaLowerBound = %g, want %g for unit strip", got, want)
	}
}

func TestAreaLowerBoundScalesWithWidth(t *testing.T) {
	in := NewInstance(2, []Rect{{W: 2, H: 3}})
	if got := in.AreaLowerBound(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("AreaLowerBound = %g, want 3", got)
	}
}

func TestInstanceValidate(t *testing.T) {
	cases := []struct {
		name string
		in   *Instance
		ok   bool
	}{
		{"valid", NewInstance(1, []Rect{{W: 0.5, H: 1}}), true},
		{"zero width rect", NewInstance(1, []Rect{{W: 0, H: 1}}), false},
		{"zero height rect", NewInstance(1, []Rect{{W: 0.5, H: 0}}), false},
		{"too wide", NewInstance(1, []Rect{{W: 1.5, H: 1}}), false},
		{"negative release", NewInstance(1, []Rect{{W: 0.5, H: 1, Release: -1}}), false},
		{"nan", NewInstance(1, []Rect{{W: math.NaN(), H: 1}}), false},
	}
	for _, c := range cases {
		err := c.in.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestInstanceValidateEdges(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1}, {W: 0.5, H: 1}})
	in.AddEdge(0, 1)
	if err := in.Validate(); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	bad := in.Clone()
	bad.AddEdge(0, 5)
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	loop := in.Clone()
	loop.AddEdge(1, 1)
	if err := loop.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestInstanceValidateBadID(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1}})
	in.Rects[0].ID = 7
	if err := in.Validate(); err == nil {
		t.Fatal("mismatched ID accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1}})
	in.AddEdge(0, 0) // invalid but fine for copy semantics
	c := in.Clone()
	c.Rects[0].W = 0.9
	c.Prec[0][1] = 3
	if in.Rects[0].W != 0.5 || in.Prec[0][1] != 0 {
		t.Fatal("Clone shares memory with original")
	}
}

func TestPackingHeight(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 2}, {W: 0.5, H: 1}})
	p := NewPacking(in)
	p.Set(0, 0, 0)
	p.Set(1, 0.5, 3)
	if got := p.Height(); got != 4 {
		t.Fatalf("Height = %g, want 4", got)
	}
}

func TestValidateAcceptsTouching(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1}, {W: 0.5, H: 1}, {W: 1, H: 1}})
	p := NewPacking(in)
	p.Set(0, 0, 0)
	p.Set(1, 0.5, 0) // shares the vertical edge x=0.5
	p.Set(2, 0, 1)   // sits exactly on top of both
	if err := p.Validate(); err != nil {
		t.Fatalf("touching rectangles rejected: %v", err)
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.6, H: 1}, {W: 0.6, H: 1}})
	p := NewPacking(in)
	p.Set(0, 0, 0)
	p.Set(1, 0.3, 0.5)
	err := p.Validate()
	if err == nil {
		t.Fatal("overlap accepted")
	}
	if !errors.Is(err, ErrOverlap) {
		t.Fatalf("error %v is not ErrOverlap", err)
	}
}

func TestValidateRejectsOutsideStrip(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.6, H: 1}})
	p := NewPacking(in)
	p.Set(0, 0.5, 0) // 0.5+0.6 > 1
	if err := p.Validate(); err == nil {
		t.Fatal("rect outside strip accepted")
	}
	p.Set(0, -0.1, 0)
	if err := p.Validate(); err == nil {
		t.Fatal("negative x accepted")
	}
	p.Set(0, 0, -0.5)
	if err := p.Validate(); err == nil {
		t.Fatal("negative y accepted")
	}
}

func TestValidateRejectsReleaseViolation(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1, Release: 2}})
	p := NewPacking(in)
	p.Set(0, 0, 1)
	if err := p.Validate(); err == nil {
		t.Fatal("release violation accepted")
	}
	p.Set(0, 0, 2)
	if err := p.Validate(); err != nil {
		t.Fatalf("release-respecting placement rejected: %v", err)
	}
}

func TestValidateRejectsPrecedenceViolation(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.4, H: 1}, {W: 0.4, H: 1}})
	in.AddEdge(0, 1)
	p := NewPacking(in)
	p.Set(0, 0, 0)
	p.Set(1, 0.5, 0.5) // starts before 0 finishes
	if err := p.Validate(); err == nil {
		t.Fatal("precedence violation accepted")
	}
	p.Set(1, 0.5, 1) // starts exactly when 0 finishes: allowed
	if err := p.Validate(); err != nil {
		t.Fatalf("tight precedence rejected: %v", err)
	}
}

func TestValidateWrongLength(t *testing.T) {
	in := NewInstance(1, []Rect{{W: 0.5, H: 1}})
	p := &Packing{Instance: in, Pos: nil}
	if err := p.Validate(); err == nil {
		t.Fatal("short packing accepted")
	}
}

// randomPacking builds a random, possibly overlapping, arrangement.
func randomPacking(rng *rand.Rand, n int) *Packing {
	rects := make([]Rect, n)
	for i := range rects {
		rects[i] = Rect{W: 0.05 + 0.3*rng.Float64(), H: 0.05 + 0.5*rng.Float64()}
	}
	in := NewInstance(1, rects)
	p := NewPacking(in)
	for i, r := range rects {
		p.Set(i, rng.Float64()*(1-r.W), rng.Float64()*3)
	}
	return p
}

// TestSweepMatchesNaive is the central property test for the validator: on
// arbitrary arrangements the sweep-line overlap detector and the O(n^2)
// reference must agree on whether *any* overlap exists.
func TestSweepMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		p := randomPacking(rng, 1+rng.Intn(20))
		naive := p.OverlapNaive() != nil
		sweep := p.OverlapSweep() != nil
		if naive != sweep {
			t.Fatalf("trial %d: naive overlap=%v sweep overlap=%v\npacking: %+v",
				trial, naive, sweep, p.Pos)
		}
	}
}

// TestSweepMatchesNaiveQuick drives the same property through testing/quick
// with generated coordinates.
func TestSweepMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPacking(rng, 1+int(n%16))
		return (p.OverlapNaive() != nil) == (p.OverlapSweep() != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepGrid(t *testing.T) {
	// A 4x4 grid of touching cells must validate.
	var rects []Rect
	for i := 0; i < 16; i++ {
		rects = append(rects, Rect{W: 0.25, H: 0.25})
	}
	in := NewInstance(1, rects)
	p := NewPacking(in)
	for i := 0; i < 16; i++ {
		p.Set(i, 0.25*float64(i%4), 0.25*float64(i/4))
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("grid rejected: %v", err)
	}
	// Nudge one cell to create an overlap; both detectors must fire.
	p.Set(5, 0.2, 0.25)
	if p.OverlapNaive() == nil || p.OverlapSweep() == nil {
		t.Fatal("overlap not detected after nudge")
	}
}

func TestValidatePermutationInvariant(t *testing.T) {
	// Overlap detection must not depend on rectangle order.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := randomPacking(rng, 10)
		want := p.OverlapSweep() != nil
		perm := rng.Perm(10)
		rects := make([]Rect, 10)
		pos := make([]Placement, 10)
		for i, j := range perm {
			rects[i] = p.Instance.Rects[j]
			pos[i] = p.Pos[j]
		}
		in2 := NewInstance(1, rects)
		p2 := &Packing{Instance: in2, Pos: pos}
		if got := p2.OverlapSweep() != nil; got != want {
			t.Fatalf("trial %d: permutation changed overlap verdict", trial)
		}
	}
}
