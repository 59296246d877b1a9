package release

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"strippack/internal/geom"
)

// TestBoundCacheDedup: byte-identical instances share one solve.
func TestBoundCacheDedup(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 1}, {W: 0.25, H: 2}, {W: 0.25, H: 0.5, Release: 1},
	})
	c := NewBoundCache()
	h1, err := c.FractionalLowerBound(in)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.FractionalLowerBound(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("replayed bound %g != solved bound %g", h2, h1)
	}
	if hits, misses := c.hits, c.misses; hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestBoundCacheFingerprintCoversPrec: regression for the aliasing bug
// where the fingerprint covered only strip width and per-rect (W, H,
// Release) — two instances differing only in precedence edges shared a
// cache entry, contradicting the key's "can never alias two different
// instances" guarantee.
func TestBoundCacheFingerprintCoversPrec(t *testing.T) {
	plain := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 1}, {W: 0.5, H: 1},
	})
	chained := plain.Clone()
	chained.AddEdge(0, 1)
	if fingerprint(plain) == fingerprint(chained) {
		t.Fatal("instances differing only in Prec share a fingerprint")
	}
	// Edge direction and endpoints must distinguish too.
	reversed := plain.Clone()
	reversed.AddEdge(1, 0)
	if fingerprint(chained) == fingerprint(reversed) {
		t.Fatal("reversed edge shares a fingerprint")
	}
	c := NewBoundCache()
	if _, err := c.FractionalLowerBound(plain); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FractionalLowerBound(chained); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.hits, c.misses; hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (no aliasing)", hits, misses)
	}
}

// TestBoundCacheCachesErrors: a failing instance pays for its diagnosis
// once; repeats replay the memoized error as hits.
func TestBoundCacheCachesErrors(t *testing.T) {
	c := NewBoundCache()
	bad := geom.NewInstance(1, []geom.Rect{{W: 2, H: 1}})
	_, first := c.FractionalLowerBound(bad)
	if first == nil {
		t.Fatal("over-wide rectangle accepted")
	}
	for i := 0; i < 2; i++ {
		_, err := c.FractionalLowerBound(bad)
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("replay %d: got %v, want %v", i, err, first)
		}
	}
	if c.misses != 1 || c.hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", c.hits, c.misses)
	}
}

// TestBoundCacheConcurrent hammers one cache from 8 goroutines, 3 passes
// each, over instances that share and differ in width sets — the RunGrid
// shape `make race` checks. Goroutines race to miss on the same key, and
// every answer must still equal FractionalLowerBound's bit for bit.
func TestBoundCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(487))
	var ins []*geom.Instance
	for b := 0; b < 6; b++ {
		ins = append(ins, fpgaInstance(rng, 6+rng.Intn(6), 2+b%3, 2*rng.Float64()))
	}
	want := make([]float64, len(ins))
	for i, in := range ins {
		h, err := FractionalLowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = h
	}
	c := NewBoundCache()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, in := range ins {
					h, err := c.FractionalLowerBound(in)
					if err == nil && h != want[i] {
						err = fmt.Errorf("instance %d: cached %v, FractionalLowerBound %v", i, h, want[i])
					}
					if err != nil {
						errs[g] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if c.hits+c.misses != 8*3*len(ins) || c.misses < len(ins) {
		t.Fatalf("hits=%d misses=%d over %d lookups of %d instances", c.hits, c.misses, 8*3*len(ins), len(ins))
	}
}
