// Package experiments drives the paper-reproduction harness: every theorem,
// lemma construction and figure of Augustine-Banerjee-Irani is turned into a
// measurable table (E1-E15, listed with their titles by
// `cmd/experiments -list`). cmd/experiments prints them; bench_test.go wraps
// them as benchmarks.
//
// Every experiment declares its trial grid (rows x repetitions) as data and
// fans the trials out through RunGrid. Tables are byte-identical for every
// GOMAXPROCS (see the determinism contract in runner.go), so the number
// of cores only changes wall-clock time, never results.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"strippack/internal/binpack"
	"strippack/internal/core/precedence"
	"strippack/internal/core/release"
	"strippack/internal/dag"
	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/geom"
	"strippack/internal/kr"
	"strippack/internal/packing"
	"strippack/internal/par"
	"strippack/internal/stats"
	"strippack/internal/workload"
)

// Experiment is one reproducible table.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Theorem 2.3: DC approximation ratio vs n (random layered DAGs)", E1},
		{"E2", "Lemma 2.4 / Fig. 1: Omega(log n) gap of the simple lower bounds", E2},
		{"E3", "Theorem 2.6: uniform-height precedence Next-Fit vs exact OPT", E3},
		{"E4", "Lemma 2.7 / Fig. 2: ratio of the construction approaches 3", E4},
		{"E5", "Section 2.2 (GGJY): precedence bin packing heuristics vs exact", E5},
		{"E6", "Theorem 3.5: APTAS height vs fractional bound, epsilon sweep", E6},
		{"E7", "Section 3: configuration-LP size, exponential in K", E7},
		{"E8", "Lemmas 3.1/3.2: measured rounding and grouping overhead", E8},
		{"E9", "Ablation: DC subroutine A and split fraction", E9},
		{"E10", "Figs. 3/4: stacking containment chain of the grouping step", E10},
		{"E11", "Foundation [16]: Kenyon-Remila APTAS vs shelf packers", E11},
		{"E12", "Online (non-clairvoyant) vs offline release-time scheduling", E12},
		{"E13", "OS churn: no-reclaim vs reclaim vs reclaim+compaction", E13},
		{"E14", "Overload: admission control (unbounded vs reject vs shed) across load", E14},
		{"E15", "Fleet routing: round-robin vs least-loaded vs power-of-two under churn", E15},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

const seeds = 5

// Per-experiment base seeds for RunGrid (trial seed = base ^ trialIndex).
const (
	seedE1  int64 = 0xAB1<<8 | 0xE1
	seedE3  int64 = 0xAB1<<8 | 0xE3
	seedE5  int64 = 0xAB1<<8 | 0xE5
	seedE6  int64 = 0xAB1<<8 | 0xE6
	seedE7  int64 = 0xAB1<<8 | 0xE7
	seedE8  int64 = 0xAB1<<8 | 0xE8
	seedE9  int64 = 0xAB1<<8 | 0xE9
	seedE10 int64 = 0xAB1<<8 | 0x10
	seedE11 int64 = 0xAB1<<8 | 0x11
	seedE12 int64 = 0xAB1<<8 | 0x12
	seedE13 int64 = 0xAB1<<8 | 0x13
	seedE14 int64 = 0xAB1<<8 | 0x14
	seedE15 int64 = 0xAB1<<8 | 0x15
	// seedE15b seeds E15's second grid (heterogeneous shard columns).
	seedE15b int64 = 0xAB1<<8 | 0xB5
)

// E1 measures DC height against the best simple lower bound on random
// layered DAG workloads as n grows; the paper guarantees a ratio of at most
// 2 + log2(n+1), and the measured ratio should grow far more slowly.
func E1(w io.Writer) error {
	ns := []int{16, 64, 256, 1024, 4096}
	type res struct {
		ratio float64
		calls int
	}
	rows, err := RunGrid(len(ns), seeds, seedE1, func(t Trial, rng *rand.Rand) (res, error) {
		n := ns[t.Row]
		layers := int(math.Max(2, math.Sqrt(float64(n))/2))
		in := workload.DAGWorkload(rng, n, layers, 0.2)
		p, st, err := precedence.DC(in, nil)
		if err != nil {
			return res{}, err
		}
		if err := p.Validate(); err != nil {
			return res{}, fmt.Errorf("E1 n=%d: %w", n, err)
		}
		lb := math.Max(st.F, in.AreaLowerBound())
		return res{ratio: p.Height() / lb, calls: st.Calls}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"n", "layers", "DC/LB mean", "DC/LB max", "2+log2(n+1)", "calls"}}
	for i, n := range ns {
		layers := int(math.Max(2, math.Sqrt(float64(n))/2))
		var ratios []float64
		calls := 0
		for _, r := range rows[i] {
			ratios = append(ratios, r.ratio)
			calls += r.calls
		}
		sm := stats.Summarize(ratios)
		t.Add(n, layers, sm.Mean, sm.Max, 2+math.Log2(float64(n+1)), calls/seeds)
	}
	t.Render(w)
	return nil
}

// E2 builds the Fig. 1 construction for growing k and reports the measured
// gap between achievable height and the simple lower bounds: the analytic
// OPT is ~k/2 while both bounds stay near 1, so the ratio grows linearly in
// k = Theta(log n). The construction is deterministic, so the grid is one
// trial per k with no repetitions.
func E2(w io.Writer) error {
	ks := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	type res struct {
		n          int
		lb, height float64
	}
	rows, err := RunGrid(len(ks), 1, 0, func(t Trial, _ *rand.Rand) (res, error) {
		k := ks[t.Row]
		in, err := workload.Fig1(k, 1e-9)
		if err != nil {
			return res{}, err
		}
		p, st, err := precedence.DC(in, nil)
		if err != nil {
			return res{}, err
		}
		if err := p.Validate(); err != nil {
			return res{}, fmt.Errorf("E2 k=%d: %w", k, err)
		}
		lb := math.Max(st.F, in.AreaLowerBound())
		return res{n: in.N(), lb: lb, height: p.Height()}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"k", "n", "LB", "DC height", "analytic OPT", "DC/LB", "OPT/LB"}}
	for i, k := range ks {
		r := rows[i][0]
		opt := workload.Fig1OPT(k, 1e-9)
		t.Add(k, r.n, r.lb, r.height, opt, r.height/r.lb, opt/r.lb)
	}
	t.Render(w)
	return nil
}

// E3 compares the uniform-height shelf algorithms against the exact
// precedence bin packing optimum on small random instances; Theorem 2.6
// bounds Next-Fit by 3*OPT and Lemma 2.5 bounds skips by OPT.
func E3(w io.Writer) error {
	type cell struct {
		n int
		p float64
	}
	var grid []cell
	for _, n := range []int{6, 8, 10, 12} {
		for _, p := range []float64{0.15, 0.4} {
			grid = append(grid, cell{n, p})
		}
	}
	type res struct {
		nf, ff, lf float64
		okSkip     bool
	}
	rows, err := RunGrid(len(grid), seeds*2, seedE3, func(t Trial, rng *rand.Rand) (res, error) {
		c := grid[t.Row]
		in := workload.UniformHeightDAG(rng, c.n, c.p)
		g, err := dag.FromEdges(in.N(), in.Prec)
		if err != nil {
			return res{}, err
		}
		sizes := make([]float64, in.N())
		for i, r := range in.Rects {
			sizes[i] = r.W
		}
		opt, err := binpack.ExactPrec(sizes, g, 12)
		if err != nil {
			return res{}, err
		}
		nf, err := binpack.PrecNextFit(sizes, g)
		if err != nil {
			return res{}, err
		}
		ff, err := binpack.PrecFirstFit(sizes, g)
		if err != nil {
			return res{}, err
		}
		lf, err := binpack.LevelFFD(sizes, g)
		if err != nil {
			return res{}, err
		}
		return res{
			nf:     float64(nf.NumBins) / float64(opt),
			ff:     float64(ff.NumBins) / float64(opt),
			lf:     float64(lf.NumBins) / float64(opt),
			okSkip: nf.Skips <= opt,
		}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"n", "p(edge)", "NF/OPT", "FF/OPT", "LFFD/OPT", "max NF/OPT", "skips<=OPT"}}
	for i, c := range grid {
		var rNF, rFF, rLF []float64
		okSkips := true
		for _, r := range rows[i] {
			rNF = append(rNF, r.nf)
			rFF = append(rFF, r.ff)
			rLF = append(rLF, r.lf)
			okSkips = okSkips && r.okSkip
		}
		t.Add(c.n, c.p, stats.Summarize(rNF).Mean, stats.Summarize(rFF).Mean,
			stats.Summarize(rLF).Mean, stats.Summarize(rNF).Max, okSkips)
	}
	t.Render(w)
	return nil
}

// E4 runs the paper's algorithm F on the Fig. 2 construction: the measured
// height equals the analytic OPT = 3k while the lower bounds approach k, so
// the certified ratio tends to 3 (Lemma 2.7). Deterministic, one trial per k.
func E4(w io.Writer) error {
	ks := []int{2, 4, 8, 16, 32}
	type res struct {
		n          int
		height, lb float64
	}
	rows, err := RunGrid(len(ks), 1, 0, func(t Trial, _ *rand.Rand) (res, error) {
		k := ks[t.Row]
		eps := 0.01 / float64(k)
		in, err := workload.Fig2(k, eps)
		if err != nil {
			return res{}, err
		}
		p, _, err := precedence.NextFitUniform(in)
		if err != nil {
			return res{}, err
		}
		if err := p.Validate(); err != nil {
			return res{}, fmt.Errorf("E4 k=%d: %w", k, err)
		}
		lb, err := precedence.LowerBound(in)
		if err != nil {
			return res{}, err
		}
		return res{n: in.N(), height: p.Height(), lb: lb}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"k", "n", "eps", "F height", "OPT", "LB", "OPT/LB"}}
	for i, k := range ks {
		r := rows[i][0]
		t.Add(k, r.n, 0.01/float64(k), r.height, workload.Fig2OPT(k), r.lb, workload.Fig2OPT(k)/r.lb)
	}
	t.Render(w)
	return nil
}

// E5 measures the three precedence bin packing heuristics against exact OPT
// and against the chain/area lower bound on random DAGs with mixed densities
// — the empirical counterpart of the GGJY asymptotic 2.7 discussion.
func E5(w io.Writer) error {
	ps := []float64{0.05, 0.15, 0.3, 0.6}
	type res struct {
		nf, ff, lf, lb float64
	}
	rows, err := RunGrid(len(ps), seeds*4, seedE5, func(t Trial, rng *rand.Rand) (res, error) {
		p := ps[t.Row]
		n := 6 + rng.Intn(6)
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = 0.05 + 0.9*rng.Float64()
		}
		g := dag.RandomOrdered(rng, n, p)
		opt, err := binpack.ExactPrec(sizes, g, 12)
		if err != nil {
			return res{}, err
		}
		nf, err := binpack.PrecNextFit(sizes, g)
		if err != nil {
			return res{}, err
		}
		ff, err := binpack.PrecFirstFit(sizes, g)
		if err != nil {
			return res{}, err
		}
		lf, err := binpack.LevelFFD(sizes, g)
		if err != nil {
			return res{}, err
		}
		lb, err := binpack.PrecLowerBound(sizes, g)
		if err != nil {
			return res{}, err
		}
		return res{
			nf: float64(nf.NumBins) / float64(opt),
			ff: float64(ff.NumBins) / float64(opt),
			lf: float64(lf.NumBins) / float64(opt),
			lb: float64(lb) / float64(opt),
		}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"density", "NF/OPT", "FF/OPT", "LFFD/OPT", "NF max", "LB/OPT mean"}}
	for i, p := range ps {
		var rNF, rFF, rLF, rLB []float64
		for _, r := range rows[i] {
			rNF = append(rNF, r.nf)
			rFF = append(rFF, r.ff)
			rLF = append(rLF, r.lf)
			rLB = append(rLB, r.lb)
		}
		t.Add(p, stats.Summarize(rNF).Mean, stats.Summarize(rFF).Mean,
			stats.Summarize(rLF).Mean, stats.Summarize(rNF).Max, stats.Summarize(rLB).Mean)
	}
	t.Render(w)
	return nil
}

// E6 sweeps the APTAS accuracy parameter on FPGA workloads and reports the
// height against the fractional bound and the greedy baselines: the ratio
// must shrink toward 1 as epsilon decreases (modulo the additive term),
// which is the observable shape of Theorem 3.5.
//
// The workload for repetition r of size n is derived from an (n, r)-keyed
// seed rather than the trial seed, so every epsilon column sees the
// identical instances — the sweep is a true ablation — and the shared
// BoundCache solves each instance's fractional bound once instead of once
// per epsilon.
func E6(w io.Writer) error {
	const K = 3
	type cell struct {
		n   int
		eps float64
	}
	var grid []cell
	for _, n := range []int{10, 20, 40} {
		for _, eps := range []float64{3, 1.5, 0.75} {
			grid = append(grid, cell{n, eps})
		}
	}
	type res struct {
		ra, rg, rs, add float64
		occ             int
	}
	cache := release.NewBoundCache()
	rows, err := RunGrid(len(grid), seeds, seedE6, func(t Trial, _ *rand.Rand) (res, error) {
		c := grid[t.Row]
		rng := rand.New(rand.NewSource(seedE6 ^ int64(1000*c.n+t.Rep)))
		in := workload.FPGA(rng, c.n, K, 0.25*float64(c.n))
		p, rep, err := release.Pack(in, release.Options{Epsilon: c.eps, K: K})
		if err != nil {
			return res{}, err
		}
		if err := p.Validate(); err != nil {
			return res{}, fmt.Errorf("E6 n=%d eps=%g: %w", c.n, c.eps, err)
		}
		optf, err := cache.FractionalLowerBound(in)
		if err != nil {
			return res{}, err
		}
		g, err := release.GreedySkyline(in)
		if err != nil {
			return res{}, err
		}
		sh, err := release.GreedyShelf(in)
		if err != nil {
			return res{}, err
		}
		return res{
			ra:  p.Height() / optf,
			rg:  g.Height() / optf,
			rs:  sh.Height() / optf,
			add: rep.AdditiveBound,
			occ: rep.Occurrences,
		}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"n", "eps", "APTAS/OPTf", "greedy/OPTf", "shelf/OPTf", "additive", "occurrences"}}
	for i, c := range grid {
		var ra, rg, rs []float64
		add, occ := 0.0, 0
		for _, r := range rows[i] {
			ra = append(ra, r.ra)
			rg = append(rg, r.rg)
			rs = append(rs, r.rs)
			add = r.add
			occ += r.occ
		}
		t.Add(c.n, c.eps, stats.Summarize(ra).Mean, stats.Summarize(rg).Mean,
			stats.Summarize(rs).Mean, add, occ/seeds)
	}
	t.Render(w)
	return nil
}

// E7 reports the configuration-LP size as K grows with the instance held
// fixed otherwise: the configuration count (and hence the eager model's
// variable count) grows exponentially in K, matching the paper's
// running-time discussion, while the column-generation master only ever
// materializes the configurations it prices — a near-constant few — which
// is what lets the sweep run far past the enumeration's practical cap.
// The count column comes from the memoized CountConfigs, not from
// enumerating. Wall-clock timing lives in the benchmark harness
// (cmd/benchjson), not here, so the table is deterministic.
func E7(w io.Writer) error {
	Ks := []int{2, 3, 4, 5, 6, 8, 12, 16, 24}
	type res struct {
		widths, configs, generated, cols, rows, pivots, rounds int
	}
	rows, err := RunGrid(len(Ks), 1, seedE7, func(t Trial, rng *rand.Rand) (res, error) {
		K := Ks[t.Row]
		in := workload.FPGA(rng, 24, K, 3)
		fs, st, err := release.SolveCG(in)
		if err != nil {
			return res{}, err
		}
		return res{
			widths:    len(fs.Model.Widths),
			configs:   release.CountConfigs(fs.Model.Widths, in.StripWidth()),
			generated: len(fs.Model.Configs),
			cols:      st.Columns,
			rows:      st.Rows,
			pivots:    st.Pivots,
			rounds:    st.Rounds,
		}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"K", "widths", "configs", "generated", "LP cols", "LP rows", "pivots", "rounds"}}
	for i, K := range Ks {
		r := rows[i][0]
		t.Add(K, r.widths, r.configs, r.generated, r.cols, r.rows, r.pivots, r.rounds)
	}
	t.Render(w)
	return nil
}

// E8 measures the overhead introduced by the two reductions: the fractional
// optimum of P(R) over P (Lemma 3.1 bounds it by 1+1/R) and of P(R,W) over
// P(R) (Lemma 3.2 bounds it by 1+(R+1)K/W).
//
// The workload for repetition r is derived from a rep-keyed seed, so every
// R row measures the identical base instances and the BoundCache solves
// each base bound once instead of once per row.
func E8(w io.Writer) error {
	const K = 3
	Rs := []int{1, 2, 4, 8}
	type res struct {
		g1, g2 float64
	}
	cache := release.NewBoundCache()
	rows, err := RunGrid(len(Rs), seeds, seedE8, func(t Trial, _ *rand.Rand) (res, error) {
		R := Rs[t.Row]
		groups := 2 * K // per-class groups; W = groups*(R+1)
		rng := rand.New(rand.NewSource(seedE8 ^ int64(1000+t.Rep)))
		in := workload.FPGA(rng, 12, K, 2)
		base, err := cache.FractionalLowerBound(in)
		if err != nil {
			return res{}, err
		}
		pr, _, err := release.RoundReleases(in, R)
		if err != nil {
			return res{}, err
		}
		afterR, err := cache.FractionalLowerBound(pr)
		if err != nil {
			return res{}, err
		}
		prw, err := release.GroupWidths(pr, groups)
		if err != nil {
			return res{}, err
		}
		afterW, err := cache.FractionalLowerBound(prw)
		if err != nil {
			return res{}, err
		}
		return res{g1: afterR / base, g2: afterW / afterR}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"R", "groups", "OPTf(PR)/OPTf(P)", "bound 1+1/R", "OPTf(PRW)/OPTf(PR)", "bound 1+(R+1)K/W"}}
	for i, R := range Rs {
		groups := 2 * K
		W := groups * (R + 1)
		var g1, g2 []float64
		for _, r := range rows[i] {
			g1 = append(g1, r.g1)
			g2 = append(g2, r.g2)
		}
		t.Add(R, groups, stats.Summarize(g1).Max, 1+1.0/float64(R),
			stats.Summarize(g2).Max, 1+float64((R+1)*K)/float64(W))
	}
	t.Render(w)
	return nil
}

// E9 is the ablation of DC's design choices: swap its subroutine A (NFDH,
// FFDH, skyline BLDH) and its split fraction, measuring the height on the
// same workloads. Theorem 2.3's proof needs NFDH's 2*AREA + h_max property
// and the 1/2 split, but the algorithm runs with any of them.
//
// The workload for repetition r is derived from a rep-keyed seed rather
// than the trial seed so every variant (row) sees the identical instances —
// the whole point of an ablation.
func E9(w io.Writer) error {
	type variant struct {
		name string
		opts *precedence.DCOptions
	}
	variants := []variant{
		{"nfdh split=0.5 (paper)", nil},
		{"ffdh split=0.5", &precedence.DCOptions{Subroutine: packing.FFDH}},
		{"bldh split=0.5", &precedence.DCOptions{Subroutine: packing.BLDH}},
		{"nfdh split=0.35", &precedence.DCOptions{SplitFraction: 0.35}},
		{"nfdh split=0.65", &precedence.DCOptions{SplitFraction: 0.65}},
	}
	type res struct {
		height, ratio float64
	}
	rows, err := RunGrid(len(variants), seeds*2, seedE9, func(t Trial, _ *rand.Rand) (res, error) {
		v := variants[t.Row]
		rng := rand.New(rand.NewSource(seedE9 ^ int64(1000+t.Rep)))
		in := workload.DAGWorkload(rng, 200, 8, 0.2)
		p, st, err := precedence.DC(in, v.opts)
		if err != nil {
			return res{}, fmt.Errorf("E9 %s: %w", v.name, err)
		}
		if err := p.Validate(); err != nil {
			return res{}, fmt.Errorf("E9 %s: %w", v.name, err)
		}
		lb := math.Max(st.F, in.AreaLowerBound())
		return res{height: p.Height(), ratio: p.Height() / lb}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"variant", "mean height", "mean ratio vs LB", "max ratio"}}
	for i, v := range variants {
		var hs, ratios []float64
		for _, r := range rows[i] {
			hs = append(hs, r.height)
			ratios = append(ratios, r.ratio)
		}
		sm := stats.Summarize(ratios)
		t.Add(v.name, stats.Summarize(hs).Mean, sm.Mean, sm.Max)
	}
	t.Render(w)
	return nil
}

// E10 verifies the stacking containment chain of Figs. 3/4 empirically:
// P(R) is contained in P(R,W), widths only grow, and the distinct width
// count drops to the group budget.
func E10(w io.Writer) error {
	type cell struct {
		n, groups int
	}
	var grid []cell
	for _, n := range []int{10, 30, 100} {
		for _, groups := range []int{2, 4, 8} {
			grid = append(grid, cell{n, groups})
		}
	}
	type res struct {
		before, after int
		contained     bool
		growth        float64
	}
	rows, err := RunGrid(len(grid), 1, seedE10, func(t Trial, rng *rand.Rand) (res, error) {
		c := grid[t.Row]
		rects := make([]geom.Rect, c.n)
		for i := range rects {
			rects[i] = geom.Rect{W: 0.25 + 0.75*rng.Float64(), H: 0.1 + 0.9*rng.Float64(),
				Release: math.Floor(3*rng.Float64()) / 2}
		}
		in := geom.NewInstance(1, rects)
		out, err := release.GroupWidths(in, c.groups)
		if err != nil {
			return res{}, err
		}
		contained := release.Contained(in, out)
		if !contained {
			return res{}, fmt.Errorf("E10 n=%d groups=%d: containment violated", c.n, c.groups)
		}
		return res{
			before:    len(release.DistinctWidths(in)),
			after:     len(release.DistinctWidths(out)),
			contained: contained,
			growth:    out.Area() / in.Area(),
		}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"n", "groups", "widths before", "widths after", "contained", "area growth"}}
	for i, c := range grid {
		r := rows[i][0]
		t.Add(c.n, c.groups, r.before, r.after, r.contained, r.growth)
	}
	t.Render(w)
	return nil
}

// E11 compares the Kenyon-Rémila-style APTAS (the [16] foundation the
// paper's Section 3 builds on) against the classical shelf packers on
// quantized-width workloads, against the certified fractional bound.
func E11(w io.Writer) error {
	type cell struct {
		n   int
		eps float64
	}
	var grid []cell
	for _, n := range []int{30, 100, 300} {
		for _, eps := range []float64{1.5, 0.75} {
			grid = append(grid, cell{n, eps})
		}
	}
	type res struct {
		rk, rn, rf, rb float64
	}
	rows, err := RunGrid(len(grid), seeds, seedE11, func(t Trial, rng *rand.Rand) (res, error) {
		c := grid[t.Row]
		rects := make([]geom.Rect, c.n)
		for i := range rects {
			rects[i] = geom.Rect{
				W: []float64{0.26, 0.34, 0.51, 0.17}[rng.Intn(4)],
				H: 0.1 + 0.9*rng.Float64(),
			}
		}
		in := geom.NewInstance(1, rects)
		p, _, err := kr.Pack(in, kr.Options{Epsilon: c.eps})
		if err != nil {
			return res{}, err
		}
		if err := p.Validate(); err != nil {
			return res{}, fmt.Errorf("E11 n=%d: %w", c.n, err)
		}
		optf, err := release.FractionalLowerBound(in)
		if err != nil {
			return res{}, err
		}
		nf, err := packing.NFDH(1, rects)
		if err != nil {
			return res{}, err
		}
		ff, err := packing.FFDH(1, rects)
		if err != nil {
			return res{}, err
		}
		bl, err := packing.BLDH(1, rects)
		if err != nil {
			return res{}, err
		}
		return res{
			rk: p.Height() / optf,
			rn: nf.Height / optf,
			rf: ff.Height / optf,
			rb: bl.Height / optf,
		}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"n", "eps", "KR/OPTf", "NFDH/OPTf", "FFDH/OPTf", "BLDH/OPTf"}}
	for i, c := range grid {
		var rk, rn, rf, rb []float64
		for _, r := range rows[i] {
			rk = append(rk, r.rk)
			rn = append(rn, r.rn)
			rf = append(rf, r.rf)
			rb = append(rb, r.rb)
		}
		t.Add(c.n, c.eps, stats.Summarize(rk).Mean, stats.Summarize(rn).Mean,
			stats.Summarize(rf).Mean, stats.Summarize(rb).Mean)
	}
	t.Render(w)
	return nil
}

// E12 quantifies the price of non-clairvoyance: the online column scheduler
// (tasks revealed at release) against the offline greedy skyline and the
// offline APTAS, on the same FPGA workloads.
func E12(w io.Writer) error {
	const K = 3
	type cell struct {
		n    int
		span float64
	}
	var grid []cell
	for _, n := range []int{15, 30} {
		for _, span := range []float64{1.0, 5.0} {
			grid = append(grid, cell{n, span})
		}
	}
	type res struct {
		on, off, ap float64
	}
	rows, err := RunGrid(len(grid), seeds, seedE12, func(t Trial, rng *rand.Rand) (res, error) {
		c := grid[t.Row]
		in := workload.FPGA(rng, c.n, K, c.span)
		sched, err := fpga.RunOnline(in, fpga.NewDevice(K))
		if err != nil {
			return res{}, err
		}
		pOn, err := sched.ToPacking(in)
		if err != nil {
			return res{}, err
		}
		if err := pOn.Validate(); err != nil {
			return res{}, fmt.Errorf("E12: %w", err)
		}
		pOff, err := release.GreedySkyline(in)
		if err != nil {
			return res{}, err
		}
		pAp, _, err := release.Pack(in, release.Options{Epsilon: 1.5, K: K})
		if err != nil {
			return res{}, err
		}
		optf, err := release.FractionalLowerBound(in)
		if err != nil {
			return res{}, err
		}
		return res{
			on:  pOn.Height() / optf,
			off: pOff.Height() / optf,
			ap:  pAp.Height() / optf,
		}, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"n", "K", "span", "online/OPTf", "offline greedy/OPTf", "APTAS/OPTf"}}
	for i, c := range grid {
		var ron, roff, rap []float64
		for _, r := range rows[i] {
			ron = append(ron, r.on)
			roff = append(roff, r.off)
			rap = append(rap, r.ap)
		}
		t.Add(c.n, K, c.span, stats.Summarize(ron).Mean, stats.Summarize(roff).Mean,
			stats.Summarize(rap).Mean)
	}
	t.Render(w)
	return nil
}

// E13 models the steady-state OS workload of the paper's §1 motivation:
// tasks arrive, run and leave a K-column device, declaring worst-case
// durations but finishing early. It compares the three completion
// policies of the online scheduler on identical churn streams — ignoring
// completions (NoReclaim), opportunistically handing freed columns to the
// placement horizon (Reclaim), and compacting waiting tasks down onto the
// reclaimed column-time (ReclaimCompact).
//
// Two properties are asserted per trial, not just tabulated: compaction
// never yields a worse makespan than no-reclaim (structural — placements
// are identical and slides only move tasks earlier), and no-reclaim
// reclaims nothing. Opportunistic reclaim carries no such guarantee — the
// `anomalies` column counts the trials where a Graham-style cascade made
// it *worse* than doing nothing, which is the classical list-scheduling
// effect the conservative compaction mode exists to avoid.
//
// The three replays of a trial fan out with par.For; each is an
// independent single-threaded simulation writing its own slot, so the
// table is byte-identical for every GOMAXPROCS (enforced by `make
// determinism`).
func E13(w io.Writer) error {
	const K = 16
	type cell struct {
		n    int
		load float64
	}
	var grid []cell
	for _, n := range []int{60, 240} {
		for _, load := range []float64{0.5, 0.85} {
			grid = append(grid, cell{n, load})
		}
	}
	type res struct {
		mk        [3]float64 // makespan per policy: none, reclaim, compact
		util      [3]float64
		reclaimed float64
		moved     int
	}
	policies := [3]fpga.Policy{fpga.NoReclaim, fpga.Reclaim, fpga.ReclaimCompact}
	rows, err := RunGrid(len(grid), seeds, seedE13, func(t Trial, rng *rand.Rand) (res, error) {
		c := grid[t.Row]
		tasks, err := workload.Churn(rng, c.n, K, c.load, 0.3)
		if err != nil {
			return res{}, err
		}
		var r res
		var stats [3]*fpga.ChurnStats
		err = par.For(len(policies), func(_, i int) error {
			_, st, err := fpga.RunChurn(tasks, fpga.NewDevice(K), policies[i])
			if err != nil {
				return err
			}
			stats[i] = st
			return nil
		})
		if err != nil {
			return res{}, err
		}
		for i, st := range stats {
			r.mk[i] = st.Makespan
			r.util[i] = st.Utilization
		}
		if r.mk[2] > r.mk[0]+1e-9 {
			return res{}, fmt.Errorf("E13 n=%d load=%g: compaction makespan %g worse than no-reclaim %g",
				c.n, c.load, r.mk[2], r.mk[0])
		}
		if stats[0].ReclaimedColumnTime != 0 {
			return res{}, fmt.Errorf("E13 n=%d load=%g: no-reclaim reclaimed column-time", c.n, c.load)
		}
		r.reclaimed = stats[2].ReclaimedColumnTime
		r.moved = stats[2].TasksMoved
		return r, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"n", "load", "mk none", "mk reclaim", "mk compact",
		"compact/none", "util none", "util compact", "reclaimed", "moved", "anomalies"}}
	for i, c := range grid {
		var mkN, mkR, mkC, utilN, utilC, ratio, reclaimed []float64
		moved, anomalies := 0, 0
		for _, r := range rows[i] {
			mkN = append(mkN, r.mk[0])
			mkR = append(mkR, r.mk[1])
			mkC = append(mkC, r.mk[2])
			utilN = append(utilN, r.util[0])
			utilC = append(utilC, r.util[2])
			ratio = append(ratio, r.mk[2]/r.mk[0])
			reclaimed = append(reclaimed, r.reclaimed)
			moved += r.moved
			if r.mk[1] > r.mk[0]+1e-9 {
				anomalies++
			}
		}
		t.Add(c.n, c.load, stats.Summarize(mkN).Mean, stats.Summarize(mkR).Mean,
			stats.Summarize(mkC).Mean, stats.Summarize(ratio).Mean,
			stats.Summarize(utilN).Mean, stats.Summarize(utilC).Mean,
			stats.Summarize(reclaimed).Mean, moved/seeds, anomalies)
	}
	t.Render(w)
	return nil
}

// E14 measures what each admission policy buys past the device's
// fragmentation-limited capacity (~0.75 offered load for this task mix —
// see bench_test.go): identical churn streams at offered loads from the
// stable regime into deep overload run through the compaction scheduler
// under unbounded admission, bounded-reject, and shed-oldest, all with the
// same backlog bound. The unbounded peak backlog (`peakq unb`) grows with
// load while the bounded policies pin it at the bound (`peakq bnd`,
// asserted per trial, not just tabulated); the price is the reject/shed
// rate, and the payoff is that makespan and mean wait stay those of the
// admitted population instead of degrading unboundedly.
//
// The three replays of a trial fan out with par.For under the same
// byte-identical determinism contract as E13.
func E14(w io.Writer) error {
	const (
		K     = 16
		n     = 1500
		bound = 32
	)
	loads := []float64{0.60, 0.75, 0.85, 0.90, 0.95}
	admissions := [3]fpga.AdmissionConfig{
		{Policy: fpga.AdmitAll},
		{Policy: fpga.AdmitBounded, MaxBacklog: bound},
		{Policy: fpga.AdmitShed, MaxBacklog: bound},
	}
	type res struct {
		mk      [3]float64 // makespan per admission policy: unbounded, reject, shed
		util    [3]float64
		wait    [3]float64
		peak    [3]int // peak waiting backlog
		rejrate float64
		shdrate float64
	}
	rows, err := RunGrid(len(loads), seeds, seedE14, func(t Trial, rng *rand.Rand) (res, error) {
		load := loads[t.Row]
		tasks, err := workload.Churn(rng, n, K, load, 0.4)
		if err != nil {
			return res{}, err
		}
		var stats [3]*fpga.ChurnStats
		err = par.For(len(admissions), func(_, i int) error {
			_, st, err := fpga.RunChurnAdmission(tasks, fpga.NewDevice(K), fpga.ReclaimCompact, admissions[i])
			if err != nil {
				return err
			}
			stats[i] = st
			return nil
		})
		if err != nil {
			return res{}, err
		}
		var r res
		for i, st := range stats {
			r.mk[i] = st.Makespan
			r.util[i] = st.Utilization
			r.wait[i] = st.MeanWait
			r.peak[i] = st.MaxBacklog
			if st.Admitted+st.Rejected+st.Shed != n {
				return res{}, fmt.Errorf("E14 load=%g %v: %d admitted + %d rejected + %d shed != %d tasks",
					load, admissions[i].Policy, st.Admitted, st.Rejected, st.Shed, n)
			}
			if admissions[i].Policy != fpga.AdmitAll && st.MaxBacklog > bound {
				return res{}, fmt.Errorf("E14 load=%g %v: backlog peaked at %d, bound %d",
					load, admissions[i].Policy, st.MaxBacklog, bound)
			}
		}
		if stats[0].Rejected+stats[0].Shed != 0 {
			return res{}, fmt.Errorf("E14 load=%g: unbounded admission refused %d tasks",
				load, stats[0].Rejected+stats[0].Shed)
		}
		if stats[1].Shed != 0 {
			return res{}, fmt.Errorf("E14 load=%g: reject policy shed %d tasks", load, stats[1].Shed)
		}
		r.rejrate = float64(stats[1].Rejected) / n
		r.shdrate = float64(stats[2].Shed) / n
		return r, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"load", "mk unb", "mk rej", "mk shed",
		"util unb", "wait unb", "wait rej", "rej rate", "shed rate", "peakq unb", "peakq bnd"}}
	for i, load := range loads {
		var mkU, mkR, mkS, utilU, waitU, waitR, rejrate, shdrate []float64
		peakU, peakB := 0, 0
		for _, r := range rows[i] {
			mkU = append(mkU, r.mk[0])
			mkR = append(mkR, r.mk[1])
			mkS = append(mkS, r.mk[2])
			utilU = append(utilU, r.util[0])
			waitU = append(waitU, r.wait[0])
			waitR = append(waitR, r.wait[1])
			rejrate = append(rejrate, r.rejrate)
			shdrate = append(shdrate, r.shdrate)
			if r.peak[0] > peakU {
				peakU = r.peak[0]
			}
			for _, p := range r.peak[1:] {
				if p > peakB {
					peakB = p
				}
			}
		}
		t.Add(load, stats.Summarize(mkU).Mean, stats.Summarize(mkR).Mean,
			stats.Summarize(mkS).Mean, stats.Summarize(utilU).Mean,
			stats.Summarize(waitU).Mean, stats.Summarize(waitR).Mean,
			stats.Summarize(rejrate).Mean, stats.Summarize(shdrate).Mean,
			peakU, peakB)
	}
	t.Render(w)
	return nil
}

// E15 compares the fleet's three routing policies on identical churn
// streams offered to an 8-shard fleet at per-shard loads from stable to
// saturated, every shard running the compaction scheduler behind a
// shed-oldest admission gate. Round-robin ignores load, so fragmentation
// noise piles waiting tasks onto unlucky shards; least-loaded and
// power-of-two route around them. The table reports, per route, the mean
// wait of the admitted population, the fraction of traffic refused
// (rejected + shed, asserted to conserve task counts per trial), and the
// per-shard admitted-count imbalance (max-min)/mean — the spread the
// load-aware routes exist to close. A second grid repeats the comparison
// on a heterogeneous fleet (shard columns 8..32 against 16-column-max
// tasks) where width eligibility and capacity-normalized scoring come
// into play.
func E15(w io.Writer) error {
	const (
		K      = 16
		shards = 8
		n      = 6000
		bound  = 32
		chunk  = 128
	)
	loads := []float64{0.60, 0.75, 0.85, 0.90, 0.95}
	routes := [3]fleet.Route{fleet.RouteRR, fleet.RouteLeast, fleet.RouteP2C}
	type res struct {
		wait [3]float64
		refu [3]float64 // refused fraction: (rejected + shed) / n
		imb  [3]float64
	}
	rows, err := RunGrid(len(loads), seeds, seedE15, func(t Trial, rng *rand.Rand) (res, error) {
		load := loads[t.Row]
		// One stream against a K-column shard at load*shards offers `load`
		// per shard fleet-wide while each task still fits one device.
		tasks, err := workload.Churn(rng, n, K, load*shards, 0.4)
		if err != nil {
			return res{}, err
		}
		var r res
		for i, route := range routes {
			st, err := fleet.RunChurn(tasks, fleet.Config{
				Shards:    shards,
				Columns:   K,
				Policy:    fpga.ReclaimCompact,
				Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: bound},
				Route:     route,
				Seed:      t.Seed,
			}, chunk)
			if err != nil {
				return res{}, err
			}
			if st.Admitted+st.Rejected+st.Shed != n {
				return res{}, fmt.Errorf("E15 load=%g %v: %d admitted + %d rejected + %d shed != %d tasks",
					load, route, st.Admitted, st.Rejected, st.Shed, n)
			}
			if st.MaxBacklog > bound {
				return res{}, fmt.Errorf("E15 load=%g %v: backlog peaked at %d, bound %d",
					load, route, st.MaxBacklog, bound)
			}
			r.wait[i] = st.MeanWait
			r.refu[i] = float64(st.Rejected+st.Shed) / n
			minA, maxA := st.PerShard[0].Admitted, st.PerShard[0].Admitted
			for _, ps := range st.PerShard[1:] {
				minA = min(minA, ps.Admitted)
				maxA = max(maxA, ps.Admitted)
			}
			if st.Admitted > 0 {
				r.imb[i] = float64(maxA-minA) * shards / float64(st.Admitted)
			}
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	t := &stats.Table{Header: []string{"load", "wait rr", "wait least", "wait p2c",
		"refuse rr", "refuse least", "refuse p2c", "imb rr", "imb least", "imb p2c"}}
	for i, load := range loads {
		var w0, w1, w2, f0, f1, f2, i0, i1, i2 []float64
		for _, r := range rows[i] {
			w0, w1, w2 = append(w0, r.wait[0]), append(w1, r.wait[1]), append(w2, r.wait[2])
			f0, f1, f2 = append(f0, r.refu[0]), append(f1, r.refu[1]), append(f2, r.refu[2])
			i0, i1, i2 = append(i0, r.imb[0]), append(i1, r.imb[1]), append(i2, r.imb[2])
		}
		t.Add(load,
			stats.Summarize(w0).Mean, stats.Summarize(w1).Mean, stats.Summarize(w2).Mean,
			stats.Summarize(f0).Mean, stats.Summarize(f1).Mean, stats.Summarize(f2).Mean,
			stats.Summarize(i0).Mean, stats.Summarize(i1).Mean, stats.Summarize(i2).Mean)
	}
	t.Render(w)

	// Second grid: the same route comparison on a heterogeneous fleet —
	// shard columns 8,8,16,16,24,24,32,32 against tasks up to 16 columns
	// wide, so the two 8-column shards are ineligible for the wide half of
	// the traffic and the drain-time-normalized scores have real capacity
	// ratios to exploit. The imbalance metric is capacity-normalized here
	// (admitted per column): load-aware routes should equalize per-column
	// throughput, while round-robin's equal shard counts overdrive the
	// narrow shards.
	cols := []int{8, 8, 16, 16, 24, 24, 32, 32}
	totalCols := 0
	for _, c := range cols {
		totalCols += c
	}
	rowsB, err := RunGrid(len(loads), seeds, seedE15b, func(t Trial, rng *rand.Rand) (res, error) {
		load := loads[t.Row]
		tasks, err := workload.Churn(rng, n, K, load*shards, 0.4)
		if err != nil {
			return res{}, err
		}
		var r res
		for i, route := range routes {
			st, err := fleet.RunChurn(tasks, fleet.Config{
				Shards:    shards,
				ShardCols: cols,
				Policy:    fpga.ReclaimCompact,
				Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: bound},
				Route:     route,
				Seed:      t.Seed,
			}, chunk)
			if err != nil {
				return res{}, err
			}
			if st.Admitted+st.Rejected+st.Shed != n {
				return res{}, fmt.Errorf("E15 hetero load=%g %v: %d admitted + %d rejected + %d shed != %d tasks",
					load, route, st.Admitted, st.Rejected, st.Shed, n)
			}
			if st.MaxBacklog > bound {
				return res{}, fmt.Errorf("E15 hetero load=%g %v: backlog peaked at %d, bound %d",
					load, route, st.MaxBacklog, bound)
			}
			r.wait[i] = st.MeanWait
			r.refu[i] = float64(st.Rejected+st.Shed) / n
			minR, maxR := math.Inf(1), math.Inf(-1)
			for s, ps := range st.PerShard {
				rate := float64(ps.Admitted) / float64(cols[s])
				minR = math.Min(minR, rate)
				maxR = math.Max(maxR, rate)
			}
			if st.Admitted > 0 {
				r.imb[i] = (maxR - minR) * float64(totalCols) / float64(st.Admitted)
			}
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nheterogeneous shards (columns %v):\n", cols)
	tb := &stats.Table{Header: []string{"load", "wait rr", "wait least", "wait p2c",
		"refuse rr", "refuse least", "refuse p2c", "colimb rr", "colimb least", "colimb p2c"}}
	for i, load := range loads {
		var w0, w1, w2, f0, f1, f2, i0, i1, i2 []float64
		for _, r := range rowsB[i] {
			w0, w1, w2 = append(w0, r.wait[0]), append(w1, r.wait[1]), append(w2, r.wait[2])
			f0, f1, f2 = append(f0, r.refu[0]), append(f1, r.refu[1]), append(f2, r.refu[2])
			i0, i1, i2 = append(i0, r.imb[0]), append(i1, r.imb[1]), append(i2, r.imb[2])
		}
		tb.Add(load,
			stats.Summarize(w0).Mean, stats.Summarize(w1).Mean, stats.Summarize(w2).Mean,
			stats.Summarize(f0).Mean, stats.Summarize(f1).Mean, stats.Summarize(f2).Mean,
			stats.Summarize(i0).Mean, stats.Summarize(i1).Mean, stats.Summarize(i2).Mean)
	}
	tb.Render(w)
	return nil
}

// RunAll executes every experiment, writing each table under its header.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
		if err := e.Run(w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
