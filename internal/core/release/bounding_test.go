package release

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"strippack/internal/geom"
)

// BoundingInstances builds the paper's P^inf and P^sup for an instance and
// a group count (Lemma 3.2 / Fig. 4): per release class with stacking
// height H, both consist of `groups` rectangles of height H/groups; the
// l-th has the threshold width of group l+1 (P^inf) or group l (P^sup).
// They satisfy P^inf ⊑ P(R) ⊑ P(R,W) ⊑ P^sup in the stacking order, which
// the lemma's proof exploits and TestBoundingChain checks.
func BoundingInstances(in *geom.Instance, groups int) (inf, sup *geom.Instance, err error) {
	if groups < 1 {
		return nil, nil, fmt.Errorf("release: groups must be >= 1, got %d", groups)
	}
	_, members := classes(in)
	var infRects, supRects []geom.Rect
	for _, ids := range members {
		if len(ids) == 0 {
			continue
		}
		order, base := Stacking(in, ids)
		H := StackHeight(in, ids)
		cut := H / float64(groups)
		rel := in.Rects[ids[0]].Release
		// Threshold width of group l: the width of the stack at height
		// l*cut (the widest rectangle whose span contains the line).
		widthAt := func(y float64) float64 {
			for k, id := range order {
				if base[k] <= y+geom.Eps && y < base[k]+in.Rects[id].H-geom.Eps {
					return in.Rects[id].W
				}
			}
			return 0
		}
		for l := 0; l < groups; l++ {
			wSup := widthAt(float64(l) * cut)
			wInf := widthAt(float64(l+1) * cut) // w_{i,groups} = 0 by convention
			if wSup > 0 {
				supRects = append(supRects, geom.Rect{W: wSup, H: cut, Release: rel})
			}
			if wInf > 0 {
				infRects = append(infRects, geom.Rect{W: wInf, H: cut, Release: rel})
			}
		}
	}
	return geom.NewInstance(in.Width, infRects), geom.NewInstance(in.Width, supRects), nil
}

func TestBoundingInstancesValidation(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}})
	if _, _, err := BoundingInstances(in, 0); err == nil {
		t.Fatal("groups=0 accepted")
	}
}

func TestBoundingInstancesShapes(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.8, H: 1}, {W: 0.6, H: 1}, {W: 0.4, H: 1}, {W: 0.2, H: 1},
	})
	inf, sup, err := BoundingInstances(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Stack height 4, cut 1: sup widths at y=0,1,2,3 are 0.8,0.6,0.4,0.2;
	// inf widths at y=1,2,3,4 are 0.6,0.4,0.2,0 (last dropped).
	if sup.N() != 4 || inf.N() != 3 {
		t.Fatalf("sup=%d inf=%d rects", sup.N(), inf.N())
	}
	if math.Abs(sup.Rects[0].W-0.8) > 1e-12 || math.Abs(inf.Rects[0].W-0.6) > 1e-12 {
		t.Fatalf("threshold widths wrong: sup0=%g inf0=%g", sup.Rects[0].W, inf.Rects[0].W)
	}
	for _, r := range sup.Rects {
		if math.Abs(r.H-1) > 1e-12 {
			t.Fatalf("sup piece height %g, want 1", r.H)
		}
	}
}

// TestBoundingChain verifies the full containment chain of Lemma 3.2:
// P^inf ⊑ P ⊑ P(groups) ⊑ P^sup in the stacking order, on random
// release-classed instances.
func TestBoundingChain(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(25)
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{
				W:       0.2 + 0.8*rng.Float64(),
				H:       0.1 + 0.9*rng.Float64(),
				Release: math.Floor(3*rng.Float64()) / 2,
			}
		}
		in := geom.NewInstance(1, rects)
		groups := 2 + rng.Intn(4)
		grouped, err := GroupWidths(in, groups)
		if err != nil {
			t.Fatal(err)
		}
		inf, sup, err := BoundingInstances(in, groups)
		if err != nil {
			t.Fatal(err)
		}
		if !Contained(inf, in) {
			t.Fatalf("trial %d: P^inf not contained in P", trial)
		}
		if !Contained(in, grouped) {
			t.Fatalf("trial %d: P not contained in P(R,W)", trial)
		}
		if !Contained(grouped, sup) {
			t.Fatalf("trial %d: P(R,W) not contained in P^sup", trial)
		}
		// The per-class stack heights of inf/sup match the original up to
		// one group slab (the dropped zero-width piece).
		if sup.Area() < grouped.Area()-1e-9 {
			t.Fatalf("trial %d: sup area below grouped area", trial)
		}
		if inf.Area() > in.Area()+1e-9 {
			t.Fatalf("trial %d: inf area above original", trial)
		}
	}
}

// TestBoundingFractionalSandwich: OPTf respects the containment order.
func TestBoundingFractionalSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(8)
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{W: 0.3 + 0.7*rng.Float64(), H: 0.1 + 0.9*rng.Float64()}
		}
		in := geom.NewInstance(1, rects)
		groups := 3
		grouped, err := GroupWidths(in, groups)
		if err != nil {
			t.Fatal(err)
		}
		inf, sup, err := BoundingInstances(in, groups)
		if err != nil {
			t.Fatal(err)
		}
		optIn, err := FractionalLowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		optG, err := FractionalLowerBound(grouped)
		if err != nil {
			t.Fatal(err)
		}
		optSup, err := FractionalLowerBound(sup)
		if err != nil {
			t.Fatal(err)
		}
		if inf.N() > 0 {
			optInf, err := FractionalLowerBound(inf)
			if err != nil {
				t.Fatal(err)
			}
			if optInf > optIn+1e-6 {
				t.Fatalf("trial %d: OPTf(inf)=%g > OPTf(P)=%g", trial, optInf, optIn)
			}
		}
		if optIn > optG+1e-6 || optG > optSup+1e-6 {
			t.Fatalf("trial %d: sandwich violated: %g %g %g", trial, optIn, optG, optSup)
		}
	}
}
