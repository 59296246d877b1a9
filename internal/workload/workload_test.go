package workload

import (
	"math"
	"math/rand"
	"testing"

	"strippack/internal/core/precedence"
	"strippack/internal/dag"
)

func TestUniformShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := Uniform(rng, 50, 0.1, 0.5, 0.2, 0.9)
	if in.N() != 50 {
		t.Fatalf("n = %d", in.N())
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, r := range in.Rects {
		if r.W < 0.1 || r.W > 0.5 || r.H < 0.2 || r.H > 0.9 {
			t.Fatalf("rect %d out of range: %+v", i, r)
		}
	}
}

func TestFPGAQuantizedAndReleasesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	K := 5
	in := FPGA(rng, 40, K, 10)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, r := range in.Rects {
		cols := r.W * float64(K)
		if math.Abs(cols-math.Round(cols)) > 1e-9 {
			t.Fatalf("rect %d width %g not column-aligned", i, r.W)
		}
		if r.Release < 0 || r.Release > 10 {
			t.Fatalf("rect %d release %g out of range", i, r.Release)
		}
		if i > 0 && r.Release < in.Rects[i-1].Release {
			t.Fatalf("releases not monotone at %d", i)
		}
	}
}

func TestDAGWorkloadAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := DAGWorkload(rng, 30, 4, 0.3)
	g, err := dag.FromEdges(in.N(), in.Prec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatalf("cyclic workload: %v", err)
	}
}

func TestUniformHeightDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := UniformHeightDAG(rng, 20, 0.3)
	for _, r := range in.Rects {
		if r.H != 1 {
			t.Fatal("height not uniform")
		}
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJPEGWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := JPEG(rng, 6, 8)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.N() != 4*6+2 {
		t.Fatalf("n = %d", in.N())
	}
	// Must be packable by DC.
	p, _, err := precedence.DC(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFig1Structure(t *testing.T) {
	k := 4
	in, err := Fig1(k, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 2*((1<<uint(k))-1) {
		t.Fatalf("n = %d, want %d", in.N(), 2*((1<<uint(k))-1))
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := dag.FromEdges(in.N(), in.Prec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatalf("Fig1 cyclic: %v", err)
	}
	// Lower bounds approach 1: F(S) = 1 + (chain separators), AREA ~ 1.
	lb, err := precedence.LowerBound(in)
	if err != nil {
		t.Fatal(err)
	}
	if lb > 1.1 {
		t.Fatalf("lower bound %g should be ~1", lb)
	}
	// The analytic OPT is k/2 >> lb.
	if opt := Fig1OPT(k, 1e-6); opt < float64(k)/2 {
		t.Fatalf("Fig1OPT = %g", opt)
	}
}

func TestFig1Validation(t *testing.T) {
	if _, err := Fig1(0, 0.1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Fig1(3, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := Fig1(3, 1); err == nil {
		t.Fatal("eps=1 accepted")
	}
}

// TestFig1GapGrows: the DC height over the best simple lower bound grows
// with k — the experimentally observable Ω(log n) gap.
func TestFig1GapGrows(t *testing.T) {
	prev := 0.0
	for _, k := range []int{2, 4, 6} {
		in, err := Fig1(k, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := precedence.DC(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		lb, err := precedence.LowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		ratio := p.Height() / lb
		if ratio < prev {
			t.Fatalf("gap did not grow: k=%d ratio=%g prev=%g", k, ratio, prev)
		}
		prev = ratio
	}
	if prev < 2 {
		t.Fatalf("final gap %g too small for k=6", prev)
	}
}

func TestFig2Structure(t *testing.T) {
	k := 5
	in, err := Fig2(k, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 3*k {
		t.Fatalf("n = %d", in.N())
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	f, err := precedence.FValues(in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dag.MaxF(f), float64(k)+1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("max F = %g, want %g (n/3+1)", got, want)
	}
	wantArea := float64(2*k)*(0.5+0.01) + float64(k)*0.01
	if math.Abs(in.Area()-wantArea) > 1e-9 {
		t.Fatalf("area = %g, want %g", in.Area(), wantArea)
	}
}

func TestFig2Validation(t *testing.T) {
	if _, err := Fig2(0, 0.1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Fig2(3, 0.6); err == nil {
		t.Fatal("eps=0.6 accepted")
	}
}

// TestFig2RatioApproaches3: NextFitUniform achieves OPT = 3k on the
// construction, while both simple lower bounds sit near k — the measured
// ratio approaches 3 as eps -> 0 and k grows (Lemma 2.7).
func TestFig2RatioApproaches3(t *testing.T) {
	k := 8
	eps := 1e-4
	in, err := Fig2(k, eps)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := precedence.NextFitUniform(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Height(), Fig2OPT(k); math.Abs(got-want) > 1e-9 {
		t.Fatalf("NextFitUniform height %g, want OPT=%g", got, want)
	}
	lb, err := precedence.LowerBound(in)
	if err != nil {
		t.Fatal(err)
	}
	ratio := p.Height() / lb
	if ratio < 2.5 || ratio > 3+1e-9 {
		t.Fatalf("ratio %g not approaching 3", ratio)
	}
}

func TestFig1OPTFormula(t *testing.T) {
	if got := Fig1OPT(4, 0); got != 2 {
		t.Fatalf("Fig1OPT(4,0) = %g, want 2", got)
	}
}

// TestFig2WideCannotPair documents the construction's key property: two
// wide rectangles cannot share a shelf.
func TestFig2WideCannotPair(t *testing.T) {
	in, err := Fig2(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	wide := 0
	for _, r := range in.Rects {
		if r.W > 0.5 {
			wide++
		}
	}
	if wide != 6 {
		t.Fatalf("wide count = %d, want 6", wide)
	}
	if 2*(0.5+0.05) <= 1 {
		t.Fatal("construction broken: two wides fit")
	}
}

func TestFig1EdgeSandwich(t *testing.T) {
	// Every tall->tall consecutive pair within a chain is separated by a
	// wide rect: check no direct tall->tall edges exist.
	in, err := Fig1(4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	nTall := (1 << 4) - 1
	for _, e := range in.Prec {
		if e[0] < nTall && e[1] < nTall {
			t.Fatalf("direct tall->tall edge %v", e)
		}
	}
}

// TestChurnValidation table-tests the parameter guards: NaN compares
// false against every bound, so a NaN load or shrink must be rejected
// explicitly rather than silently producing a degenerate trace.
func TestChurnValidation(t *testing.T) {
	cases := []struct {
		name         string
		n, K         int
		load, shrink float64
	}{
		{"empty", 0, 4, 0.8, 0.3},
		{"no columns", 10, 0, 0.8, 0.3},
		{"zero load", 10, 4, 0, 0.3},
		{"negative load", 10, 4, -0.5, 0.3},
		{"NaN load", 10, 4, math.NaN(), 0.3},
		{"Inf load", 10, 4, math.Inf(1), 0.3},
		{"zero shrink", 10, 4, 0.8, 0},
		{"negative shrink", 10, 4, 0.8, -0.1},
		{"big shrink", 10, 4, 0.8, 1.5},
		{"NaN shrink", 10, 4, 0.8, math.NaN()},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(5))
		if _, err := Churn(rng, tc.n, tc.K, tc.load, tc.shrink); err == nil {
			t.Errorf("Churn: %s accepted", tc.name)
		}
		if _, err := Burst(rng, tc.n, tc.K, tc.load, 1.2, tc.shrink, 10, 5); err == nil {
			t.Errorf("Burst: %s accepted", tc.name)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name         string
		burst        float64
		period, duty int
	}{
		{"NaN burst load", math.NaN(), 10, 5},
		{"zero burst load", 0, 10, 5},
		{"zero period", 1.2, 0, 0},
		{"negative duty", 1.2, 10, -1},
		{"duty past period", 1.2, 10, 11},
	} {
		if _, err := Burst(rng, 10, 4, 0.6, tc.burst, 0.3, tc.period, tc.duty); err == nil {
			t.Errorf("Burst: %s accepted", tc.name)
		}
	}
}

// TestBurstRates checks the phase structure: burst-phase interarrival gaps
// are drawn at the higher rate, so their mean over many cycles is well
// below the quiet phases'.
func TestBurstRates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const period, duty = 20, 10
	tasks, err := Burst(rng, 4000, 8, 0.3, 3.0, 0.5, period, duty)
	if err != nil {
		t.Fatal(err)
	}
	var burstGap, quietGap float64
	var burstN, quietN int
	for i := 1; i < len(tasks); i++ {
		gap := tasks[i].Release - tasks[i-1].Release
		if gap < 0 {
			t.Fatalf("task %d: releases not nondecreasing", i)
		}
		if i%period < duty {
			burstGap += gap
			burstN++
		} else {
			quietGap += gap
			quietN++
		}
	}
	if burstGap/float64(burstN) >= quietGap/float64(quietN)/2 {
		t.Fatalf("burst gaps (mean %g) not clearly shorter than quiet gaps (mean %g)",
			burstGap/float64(burstN), quietGap/float64(quietN))
	}
}

func TestChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, K := range []int{1, 2, 7, 32} {
		tasks, err := Churn(rng, 200, K, 0.8, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		maxCols := K / 2
		if maxCols < 1 {
			maxCols = 1
		}
		prev := 0.0
		for i, task := range tasks {
			if task.Release < prev {
				t.Fatalf("K=%d task %d: releases not nondecreasing", K, i)
			}
			prev = task.Release
			if task.Cols < 1 || task.Cols > maxCols {
				t.Fatalf("K=%d task %d: %d columns outside [1, %d]", K, i, task.Cols, maxCols)
			}
			if task.Duration < 0.5 || task.Duration >= 1.5 {
				t.Fatalf("K=%d task %d: duration %g outside [0.5, 1.5)", K, i, task.Duration)
			}
			if task.Lifetime <= 0 || task.Lifetime > task.Duration {
				t.Fatalf("K=%d task %d: lifetime %g outside (0, %g]", K, i, task.Lifetime, task.Duration)
			}
			if task.Lifetime < 0.3*task.Duration {
				t.Fatalf("K=%d task %d: lifetime below the shrink floor", K, i)
			}
		}
	}
}
