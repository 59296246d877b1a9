// Package workload generates problem instances for the experiment harness:
// random rectangle populations, FPGA-style column-quantized tasks, Poisson
// release times, precedence DAG workloads, and — most importantly — the two
// adversarial constructions of the paper (Lemma 2.4 / Fig. 1 and Lemma 2.7
// / Fig. 2) that witness the limits of the simple lower bounds.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"strippack/internal/dag"
	"strippack/internal/geom"
)

// Uniform returns n rectangles with widths in [wMin, wMax] and heights in
// [hMin, hMax], no precedence, no releases.
func Uniform(rng *rand.Rand, n int, wMin, wMax, hMin, hMax float64) *geom.Instance {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{
			W: wMin + (wMax-wMin)*rng.Float64(),
			H: hMin + (hMax-hMin)*rng.Float64(),
		}
	}
	return geom.NewInstance(1, rects)
}

// FPGA returns n tasks on a K-column device: widths are c/K for a random
// column count c, heights in (0,1], releases Poisson-spread over
// [0, maxRelease].
func FPGA(rng *rand.Rand, n, K int, maxRelease float64) *geom.Instance {
	rects := make([]geom.Rect, n)
	t := 0.0
	rate := maxRelease / float64(n+1)
	for i := range rects {
		if maxRelease > 0 {
			t += rng.ExpFloat64() * rate
			if t > maxRelease {
				t = maxRelease
			}
		}
		rects[i] = geom.Rect{
			W:       float64(1+rng.Intn(K)) / float64(K),
			H:       0.1 + 0.9*rng.Float64(),
			Release: t,
		}
	}
	return geom.NewInstance(1, rects)
}

// DAGWorkload attaches a random layered DAG to random rectangles: a generic
// precedence-constrained scheduling workload.
func DAGWorkload(rng *rand.Rand, n, layers int, p float64) *geom.Instance {
	in := Uniform(rng, n, 0.05, 0.85, 0.05, 1.0)
	g := dag.RandomLayered(rng, n, layers, p)
	in.Prec = g.Edges()
	return in
}

// UniformHeightDAG returns a uniform-height (h=1) instance with a random
// DAG, the setting of §2.2.
func UniformHeightDAG(rng *rand.Rand, n int, p float64) *geom.Instance {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{W: 0.05 + 0.9*rng.Float64(), H: 1}
	}
	in := geom.NewInstance(1, rects)
	in.Prec = dag.RandomOrdered(rng, n, p).Edges()
	return in
}

// JPEG returns the JPEG-pipeline workload of the paper's introduction:
// blocks parallel 4-stage chains between a header task and an entropy
// coder, with stage-specific widths/durations on a K-column device.
func JPEG(rng *rand.Rand, blocks, K int) *geom.Instance {
	g := dag.JPEGPipeline(blocks)
	n := g.N()
	col := 1.0 / float64(K)
	rects := make([]geom.Rect, n)
	// Header and entropy tasks span more columns.
	rects[0] = geom.Rect{Name: "header", W: math.Min(1, 2*col), H: 0.2}
	rects[n-1] = geom.Rect{Name: "entropy", W: math.Min(1, 3*col), H: 0.5}
	stages := []struct {
		name string
		cols int
		h    float64
	}{
		{"colorspace", 1, 0.3},
		{"dct", 2, 0.6},
		{"quant", 1, 0.25},
		{"zigzag", 1, 0.15},
	}
	for b := 0; b < blocks; b++ {
		for s, st := range stages {
			id := 1 + 4*b + s
			cols := st.cols
			if cols > K {
				cols = K
			}
			rects[id] = geom.Rect{
				Name: fmt.Sprintf("%s[%d]", st.name, b),
				W:    float64(cols) * col,
				H:    st.h * (0.8 + 0.4*rng.Float64()),
			}
		}
	}
	in := geom.NewInstance(1, rects)
	in.Prec = g.Edges()
	return in
}

// Fig1 builds the Lemma 2.4 construction witnessing the Ω(log n) gap
// between OPT and max(F, AREA). Parameter k gives n = 2^(k+1) - 2
// rectangles: 2^k - 1 "tall" rectangles (2^(i-1) of height 1/2^(i-1) for
// chain i = 1..k, each of width 1/k) and as many "wide" rectangles of
// height eps and width 1. Chain i alternates its tall rectangles with wide
// ones; leftover wide rectangles form a separate chain.
//
// As eps -> 0 both lower bounds approach 1 while OPT >= k/2: the wide
// separators force shelf-like packing.
func Fig1(k int, eps float64) (*geom.Instance, error) {
	if k < 1 {
		return nil, fmt.Errorf("workload: k must be >= 1, got %d", k)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("workload: eps must be in (0,1), got %g", eps)
	}
	nTall := 1<<uint(k) - 1
	n := 2 * nTall
	rects := make([]geom.Rect, 0, n)
	// Tall rectangles: ids 0..nTall-1, sorted tallest first. The i-th chain
	// (1-based) holds 2^(i-1) rects of height 1/2^(i-1).
	type chainInfo struct{ ids []int }
	chains := make([]chainInfo, k)
	id := 0
	for i := 1; i <= k; i++ {
		h := 1.0 / float64(int(1)<<uint(i-1))
		for c := 0; c < 1<<uint(i-1); c++ {
			rects = append(rects, geom.Rect{
				Name: fmt.Sprintf("tall[%d.%d]", i, c),
				W:    1.0 / float64(k), H: h,
			})
			chains[i-1].ids = append(chains[i-1].ids, id)
			id++
		}
	}
	// Wide rectangles: ids nTall..n-1.
	for j := 0; j < nTall; j++ {
		rects = append(rects, geom.Rect{
			Name: fmt.Sprintf("wide[%d]", j),
			W:    1, H: eps,
		})
	}
	in := geom.NewInstance(1, rects)
	// Chain i: tall -> wide -> tall -> wide -> ... using fresh wide rects.
	nextWide := nTall
	for i := 0; i < k; i++ {
		ids := chains[i].ids
		for c := 0; c+1 < len(ids); c++ {
			in.AddEdge(ids[c], nextWide)
			in.AddEdge(nextWide, ids[c+1])
			nextWide++
		}
	}
	// Leftover wide rects form their own chain.
	for ; nextWide+1 < n; nextWide++ {
		in.AddEdge(nextWide, nextWide+1)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// Fig1OPT returns the analytic (asymptotic) optimal height of the Fig1
// instance: every chain i adds 2^(i-2) shelves of height 1/2^(i-1) beyond
// reuse, totalling at least k/2 (Lemma 2.4's accounting), plus the eps
// separators.
func Fig1OPT(k int, eps float64) float64 {
	nTall := 1<<uint(k) - 1
	return float64(k)/2 + float64(nTall)*eps
}

// Fig2 builds the Lemma 2.7 construction for uniform heights: n = 3k
// rectangles of height 1; k "narrow" (width eps) forming a chain, 2k "wide"
// (width 1/2+eps) each preceding the first narrow one. OPT = n while
// max F = n/3 + 1 and AREA = n/3 + n*eps, so OPT approaches 3x both bounds.
func Fig2(k int, eps float64) (*geom.Instance, error) {
	if k < 1 {
		return nil, fmt.Errorf("workload: k must be >= 1, got %d", k)
	}
	if eps <= 0 || eps >= 0.5 {
		return nil, fmt.Errorf("workload: eps must be in (0,0.5), got %g", eps)
	}
	n := 3 * k
	rects := make([]geom.Rect, 0, n)
	// Narrow chain: ids 0..k-1.
	for i := 0; i < k; i++ {
		rects = append(rects, geom.Rect{Name: fmt.Sprintf("narrow[%d]", i), W: eps, H: 1})
	}
	// Wide rectangles: ids k..3k-1.
	for i := 0; i < 2*k; i++ {
		rects = append(rects, geom.Rect{Name: fmt.Sprintf("wide[%d]", i), W: 0.5 + eps, H: 1})
	}
	in := geom.NewInstance(1, rects)
	for i := 0; i+1 < k; i++ {
		in.AddEdge(i, i+1)
	}
	for i := k; i < 3*k; i++ {
		in.AddEdge(i, 0)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// Fig2OPT returns the exact optimal height of the Fig2 instance: the 2k
// wide rectangles stack (no two fit side by side), then the k-chain runs,
// giving 3k = n.
func Fig2OPT(k int) float64 { return float64(3 * k) }
