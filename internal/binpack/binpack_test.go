package binpack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sizesOf(vals ...float64) []float64 { return vals }

// Validate checks that no bin exceeds capacity 1 for the given sizes.
func (a *Assignment) Validate(sizes []float64) error {
	if len(a.Bin) != len(sizes) {
		return fmt.Errorf("binpack: %d assignments for %d items", len(a.Bin), len(sizes))
	}
	load := make([]float64, a.NumBins)
	for i, b := range a.Bin {
		if b < 0 || b >= a.NumBins {
			return fmt.Errorf("binpack: item %d in bin %d of %d", i, b, a.NumBins)
		}
		load[b] += sizes[i]
		if load[b] > 1+Eps {
			return fmt.Errorf("binpack: bin %d overfull (%g)", b, load[b])
		}
	}
	return nil
}

// NextFit packs items in the given order, opening a new bin whenever the
// current bin cannot hold the next item (2-approximation). It is the
// reference that PrecNextFit must match on an edgeless graph.
func NextFit(sizes []float64) (*Assignment, error) {
	if err := checkSizes(sizes); err != nil {
		return nil, err
	}
	a := &Assignment{Bin: make([]int, len(sizes))}
	cur, load := -1, 0.0
	for i, s := range sizes {
		if cur == -1 || load+s > 1+Eps {
			cur++
			load = 0
		}
		a.Bin[i] = cur
		load += s
	}
	a.NumBins = cur + 1
	return a, nil
}

// ExactBranchBound computes the optimal number of bins for small instances
// (n up to ~16) by DFS with symmetry breaking: each item goes into one of
// the already-open bins or a new bin; items are processed in decreasing
// order and the search stops once it meets the size bound. It is the
// optimum the heuristics and ExactPrec are checked against.
func ExactBranchBound(sizes []float64, maxN int) (int, error) {
	if err := checkSizes(sizes); err != nil {
		return 0, err
	}
	n := len(sizes)
	if maxN > 0 && n > maxN {
		return 0, fmt.Errorf("binpack: instance size %d exceeds exact-solver cap %d", n, maxN)
	}
	if n == 0 {
		return 0, nil
	}
	order := decreasingOrder(sizes)
	s := make([]float64, n)
	for i, j := range order {
		s[i] = sizes[j]
	}
	ffd, err := FirstFitDecreasing(sizes)
	if err != nil {
		return 0, err
	}
	best := ffd.NumBins
	lb := LowerBoundL1(sizes)
	loads := make([]float64, 0, n)
	var dfs func(i, used int)
	dfs = func(i, used int) {
		if used >= best {
			return
		}
		if i == n {
			best = used
			return
		}
		// Remaining-size bound.
		var rem float64
		for k := i; k < n; k++ {
			rem += s[k]
		}
		var slack float64
		for _, l := range loads[:used] {
			slack += 1 - l
		}
		need := used + int(math.Ceil((rem-slack)-Eps))
		if need < used {
			need = used
		}
		if need >= best {
			return
		}
		seen := make(map[int64]bool)
		for b := 0; b < used; b++ {
			if loads[b]+s[i] > 1+Eps {
				continue
			}
			// Symmetry: skip bins with (rounded) identical load.
			key := int64(loads[b] * 1e9)
			if seen[key] {
				continue
			}
			seen[key] = true
			loads[b] += s[i]
			dfs(i+1, used)
			loads[b] -= s[i]
		}
		// New bin.
		loads = append(loads, s[i])
		dfs(i+1, used+1)
		loads = loads[:used]
		if best == lb {
			return
		}
	}
	dfs(0, 0)
	return best, nil
}

func TestNextFitBasic(t *testing.T) {
	a, err := NextFit(sizesOf(0.6, 0.6, 0.4, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	// 0.6 | 0.6+0.4 | 0.4 -> 3 bins
	if a.NumBins != 3 {
		t.Fatalf("NextFit bins = %d, want 3 (%v)", a.NumBins, a.Bin)
	}
	if err := a.Validate(sizesOf(0.6, 0.6, 0.4, 0.4)); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitReusesEarlierBins(t *testing.T) {
	s := sizesOf(0.6, 0.6, 0.4, 0.4)
	a, err := FirstFit(s)
	if err != nil {
		t.Fatal(err)
	}
	// FF: b0=0.6, b1=0.6, 0.4->b0, 0.4->b1 => 2 bins.
	if a.NumBins != 2 {
		t.Fatalf("FirstFit bins = %d, want 2", a.NumBins)
	}
	if err := a.Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestFFDPerfect(t *testing.T) {
	s := sizesOf(0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25)
	a, err := FirstFitDecreasing(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBins != 3 {
		t.Fatalf("FFD bins = %d, want 3", a.NumBins)
	}
	if err := a.Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadSizes(t *testing.T) {
	for _, s := range [][]float64{{0}, {-0.5}, {1.5}, {math.NaN()}} {
		if _, err := NextFit(s); err == nil {
			t.Errorf("NextFit accepted %v", s)
		}
		if _, err := FirstFit(s); err == nil {
			t.Errorf("FirstFit accepted %v", s)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	a, err := NextFit(nil)
	if err != nil || a.NumBins != 0 {
		t.Fatalf("empty: %v bins=%d", err, a.NumBins)
	}
}

func TestValidateCatchesOverfullAndRange(t *testing.T) {
	a := &Assignment{Bin: []int{0, 0}, NumBins: 1}
	if err := a.Validate(sizesOf(0.7, 0.7)); err == nil {
		t.Error("overfull bin accepted")
	}
	b := &Assignment{Bin: []int{2}, NumBins: 1}
	if err := b.Validate(sizesOf(0.5)); err == nil {
		t.Error("out-of-range bin accepted")
	}
	c := &Assignment{Bin: []int{0}, NumBins: 1}
	if err := c.Validate(sizesOf(0.5, 0.5)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestLowerBoundL1(t *testing.T) {
	if got := LowerBoundL1(sizesOf(0.5, 0.5, 0.5)); got != 2 {
		t.Fatalf("L1 = %d, want 2", got)
	}
	if got := LowerBoundL1(nil); got != 0 {
		t.Fatalf("L1(empty) = %d", got)
	}
}

func TestExactBranchBoundSmall(t *testing.T) {
	cases := []struct {
		sizes []float64
		want  int
	}{
		{sizesOf(0.5, 0.5), 1},
		{sizesOf(0.6, 0.6, 0.6), 3},
		{sizesOf(0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25), 3},
		{sizesOf(1, 1, 1), 3},
		{nil, 0},
	}
	for _, c := range cases {
		got, err := ExactBranchBound(c.sizes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Exact(%v) = %d, want %d", c.sizes, got, c.want)
		}
	}
}

func TestExactRespectsCap(t *testing.T) {
	s := make([]float64, 20)
	for i := range s {
		s[i] = 0.5
	}
	if _, err := ExactBranchBound(s, 10); err == nil {
		t.Fatal("cap not enforced")
	}
}

// TestHeuristicsSandwich: on random instances every heuristic result lies
// between the exact optimum and its theoretical multiple, and all
// assignments validate.
func TestHeuristicsSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.05 + 0.95*rng.Float64()
		}
		opt, err := ExactBranchBound(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		type algo struct {
			name  string
			run   func([]float64) (*Assignment, error)
			ratio float64
		}
		algos := []algo{
			{"NextFit", NextFit, 2},
			{"FirstFit", FirstFit, 2},
			{"FFD", FirstFitDecreasing, 1.5},
		}
		for _, al := range algos {
			a, err := al.run(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(s); err != nil {
				t.Fatalf("%s produced invalid assignment: %v", al.name, err)
			}
			if a.NumBins < opt {
				t.Fatalf("%s beat the optimum: %d < %d", al.name, a.NumBins, opt)
			}
			// Absolute guarantees: NF <= 2 OPT; FFD <= 1.5 OPT + 1.
			if float64(a.NumBins) > al.ratio*float64(opt)+1+1e-9 {
				t.Fatalf("%s = %d exceeds %.1f*OPT+1 with OPT=%d (sizes %v)",
					al.name, a.NumBins, al.ratio, opt, s)
			}
		}
	}
}

// TestLowerBoundsSound: L1 never exceeds the exact optimum.
func TestLowerBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.05 + 0.95*rng.Float64()
		}
		opt, err := ExactBranchBound(s, 0)
		if err != nil {
			return false
		}
		return LowerBoundL1(s) <= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
