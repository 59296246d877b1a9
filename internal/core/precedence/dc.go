// Package precedence implements Section 2 of Augustine, Banerjee and Irani:
// strip packing with precedence constraints.
//
// It provides:
//   - DC, the divide-and-conquer O(log n)-approximation of Algorithm 1
//     (Theorem 2.3: DC(S) <= log(n+1)·F(S) + 2·AREA(S) <= (2+log(n+1))·OPT),
//   - the two lower bounds F(S) (critical path) and AREA(S),
//   - NextFitUniform, the paper's algorithm F for uniform heights
//     (Theorem 2.6: absolute 3-approximation), and FirstFitUniform, its
//     precedence First-Fit variant.
//
// Shelf solutions are without loss of generality for uniform heights (the
// slide-down argument of §2.2); the tests carry that conversion as
// ToShelfSolution.
package precedence

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"strippack/internal/binpack"
	"strippack/internal/dag"
	"strippack/internal/geom"
	"strippack/internal/packing"
)

// DCOptions configures the DC algorithm.
type DCOptions struct {
	// Subroutine is the unconstrained strip packer used for the middle band
	// (the paper's A). It must satisfy A(S') <= 2·AREA(S')/width + max h for
	// Theorem 2.3 to hold; NFDH does. Defaults to the allocation-free
	// packing.NFDHInto; setting Subroutine routes bands through a copying
	// adapter (packing.IndexOf), which the E9 ablation variants use.
	Subroutine packing.Algorithm
	// SplitFraction is the F-threshold as a fraction of H used to cut the
	// instance; the paper fixes 1/2. Exposed for the ablation experiment
	// (E9). Values must lie in (0,1); 0 means 1/2.
	SplitFraction float64
}

// DCStats reports structural information about a DC run, used by the
// experiment harness, together with the critical-path bound the run
// computed on the way.
type DCStats struct {
	// Calls counts recursive invocations (including leaves).
	Calls int
	// MaxDepth is the deepest recursion level reached.
	MaxDepth int
	// Bands counts the middle bands packed with the subroutine.
	Bands int
	// F is F(S), the critical-path lower bound of the whole instance. The
	// recursion's first level computes it (Algorithm 1, line 2, on all of
	// S) with LongestPathF's recurrence, so it is bit-identical to
	// dag.MaxF of FValues and callers need not build the DAG again.
	F float64
}

// FValues returns the paper's F(s) for every rectangle: the height of the
// top edge of s when the strip is infinitely wide. It sorts the DAG once:
// LongestPathF's topological sort is also the cycle check.
func FValues(in *geom.Instance) ([]float64, error) {
	g, err := dag.FromEdges(in.N(), in.Prec)
	if err != nil {
		return nil, err
	}
	h := make([]float64, in.N())
	for i, r := range in.Rects {
		h[i] = r.H
	}
	return g.LongestPathF(h)
}

// LowerBound returns max(F(S), AREA(S)/width), the best of the two simple
// lower bounds the paper uses; Lemma 2.4 shows they can be Ω(log n) below
// OPT.
func LowerBound(in *geom.Instance) (float64, error) {
	f, err := FValues(in)
	if err != nil {
		return 0, err
	}
	return math.Max(dag.MaxF(f), in.AreaLowerBound()), nil
}

// DC runs Algorithm 1 on the instance and returns a feasible packing.
//
// The DAG is built and topologically sorted once per call; the sort is
// also the cycle check. The first level's F values are those of the
// whole instance, so DCStats.F reports F(S) without a second pass.
//
// The recursion is allocation-free after setup: per-level F values come
// from an epoch-marked dag.Scratch instead of materialized induced
// subgraphs, the bot/mid/top partition happens in place inside one backing
// id array, and the middle band is packed by index directly into the result
// (packing.NFDHInto). Independent subtrees run concurrently, at most
// GOMAXPROCS (read at each call) at a time.
//
// Parallel determinism contract (the DC analogue of the experiment
// engine's contract in internal/experiments/runner.go): for a fixed
// instance and options, the packing and the DCStats are byte-for-byte
// identical for every GOMAXPROCS. Bot and top subtrees (and the middle
// band) write relative-y packings into disjoint id sets, the
// deterministic prefix-offset pass combines spans in bot -> mid -> top
// program order, and stats merge additively, so goroutine scheduling can
// never leak into the output. `make determinism` runs the experiment
// tables at GOMAXPROCS 1 and 8 and compares them.
func DC(in *geom.Instance, opts *DCOptions) (*geom.Packing, *DCStats, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	g, err := dag.FromEdges(in.N(), in.Prec)
	if err != nil {
		return nil, nil, err
	}
	// The recursion keeps every id subset topologically ordered (SubgraphF
	// requires it, and the stable three-way partition preserves it), so the
	// backing array starts out as the graph's topological order.
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	sub := packing.IndexAlgorithm(packing.NFDHInto)
	frac := 0.5
	if opts != nil {
		if opts.Subroutine != nil {
			sub = packing.IndexOf(opts.Subroutine)
		}
		if opts.SplitFraction != 0 {
			if opts.SplitFraction <= 0 || opts.SplitFraction >= 1 {
				return nil, nil, fmt.Errorf("precedence: split fraction %g outside (0,1)", opts.SplitFraction)
			}
			frac = opts.SplitFraction
		}
	}
	n := in.N()
	p := geom.NewPacking(in)
	heights := make([]float64, n)
	for i, r := range in.Rects {
		heights[i] = r.H
	}
	ids := make([]int32, n)
	for k, v := range order {
		ids[k] = int32(v)
	}
	d := &dcRun{
		in:      in,
		g:       g,
		sub:     sub,
		frac:    frac,
		pack:    p,
		heights: heights,
		width:   in.StripWidth(),
		sem:     make(chan struct{}, runtime.GOMAXPROCS(0)-1),
	}
	d.pool.New = func() any { return d.newScratch() }
	stats := &DCStats{}
	if _, err := d.rec(ids, 1, d.newScratch(), stats); err != nil {
		return nil, nil, err
	}
	return p, stats, nil
}

type dcRun struct {
	in      *geom.Instance
	g       *dag.Graph
	sub     packing.IndexAlgorithm
	frac    float64
	pack    *geom.Packing
	heights []float64
	width   float64
	// sem holds GOMAXPROCS-1 tokens: a subtree is handed to a new
	// goroutine only when a token is free, otherwise it runs inline. The
	// main goroutine is the remaining worker, so GOMAXPROCS 1 never spawns.
	sem  chan struct{}
	pool sync.Pool // of *dcScratch, for spawned subtrees
}

// dcScratch is the per-goroutine arena of the recursion: the epoch-marked
// F scratch plus the partition buffer. One exists per concurrently active
// subtree; the serial path uses a single instance for the whole run.
type dcScratch struct {
	ds  *dag.Scratch
	tmp []int32
}

func (d *dcRun) newScratch() *dcScratch {
	n := d.in.N()
	return &dcScratch{ds: dag.NewScratch(n), tmp: make([]int32, n)}
}

// asyncMin is the subtree size below which handing work to another
// goroutine costs more than it saves. Purely a performance knob: the output
// is identical either way.
const asyncMin = 64

// rec implements DC(S) on the topologically ordered ids, writing a packing
// whose y coordinates are relative to the subtree's own base line, and
// returns the vertical span used. The caller shifts the subtree into place
// afterwards (the prefix-offset pass), which is what lets bot and top run
// concurrently. Stats for this subtree accumulate into st.
func (d *dcRun) rec(ids []int32, depth int, sc *dcScratch, st *DCStats) (float64, error) {
	st.Calls++
	if depth > st.MaxDepth {
		st.MaxDepth = depth
	}
	if len(ids) == 0 {
		return 0, nil
	}
	// Recalculate F on the induced subgraph (Algorithm 1, line 2).
	h, err := d.g.SubgraphF(ids, d.heights, sc.ds)
	if err != nil {
		return 0, err
	}
	if depth == 1 {
		st.F = h
	}
	cut := h * d.frac
	// Classify with exact comparisons against the predecessor maximum:
	// F(s) - h(s) equals max_{s' in IN(s)} F(s') by definition, and using
	// the latter avoids re-subtraction rounding, which keeps Lemma 2.2
	// (non-empty middle band) true in floating point: walking any tight
	// chain from the F-maximal rectangle down to a source must cross the
	// cut at some rectangle with F > cut and predecessor max <= cut.
	//
	// The partition is stable (first pass counts, second scatters in order
	// through sc.tmp, then copies back), so each part stays topologically
	// ordered inside the shared backing array.
	nb, nm := 0, 0
	for _, id := range ids {
		switch {
		case sc.ds.F(id) <= cut:
			nb++
		case sc.ds.PredMax(id) <= cut:
			nm++
		}
	}
	if nm == 0 {
		return 0, fmt.Errorf("precedence: empty middle band (n=%d, frac=%g)", len(ids), d.frac)
	}
	tmp := sc.tmp[:len(ids)]
	bi, mi, ti := 0, nb, nb+nm
	for _, id := range ids {
		switch {
		case sc.ds.F(id) <= cut:
			tmp[bi] = id
			bi++
		case sc.ds.PredMax(id) <= cut:
			tmp[mi] = id
			mi++
		default:
			tmp[ti] = id
			ti++
		}
	}
	copy(ids, tmp)
	bot, mid, top := ids[:nb], ids[nb:nb+nm], ids[nb+nm:]

	// Bot subtree, middle band and top subtree touch disjoint ids, so they
	// can run concurrently. The parallel variant lives in its own method
	// because its goroutine closures force their captures onto the heap;
	// keeping rec itself closure-free makes the serial path (and every
	// too-small-to-offload level of a parallel run) allocation-free.
	if cap(d.sem) > 0 && (len(bot) >= asyncMin || len(mid) >= asyncMin) {
		return d.recParallel(bot, mid, top, depth, sc, st)
	}
	var botStats, topStats DCStats
	botSpan, err := d.rec(bot, depth+1, sc, &botStats)
	if err != nil {
		return 0, err
	}
	midH, err := d.sub(d.width, d.in.Rects, mid, d.pack.Pos)
	if err != nil {
		return 0, err
	}
	topSpan, err := d.rec(top, depth+1, sc, &topStats)
	if err != nil {
		return 0, err
	}
	d.shift(mid, top, botSpan, midH)
	mergeStats(st, &botStats, &topStats)
	return botSpan + midH + topSpan, nil
}

// recParallel finishes a level whose parts are already partitioned: bot and
// the middle band are offloaded to pooled goroutines when a worker token is
// free, top always runs inline (reusing sc, which the partition no longer
// needs). Identical arithmetic to the serial path in rec — only the
// execution overlaps.
func (d *dcRun) recParallel(bot, mid, top []int32, depth int, sc *dcScratch, st *DCStats) (float64, error) {
	var (
		wg                     sync.WaitGroup
		botSpan, midH, topSpan float64
		botErr, midErr, topErr error
		botStats, topStats     DCStats
	)
	if len(bot) >= asyncMin && d.acquire() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.pool.Get().(*dcScratch)
			botSpan, botErr = d.rec(bot, depth+1, s, &botStats)
			d.pool.Put(s)
			<-d.sem
		}()
	} else {
		botSpan, botErr = d.rec(bot, depth+1, sc, &botStats)
	}
	if len(mid) >= asyncMin && d.acquire() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			midH, midErr = d.sub(d.width, d.in.Rects, mid, d.pack.Pos)
			<-d.sem
		}()
	} else {
		midH, midErr = d.sub(d.width, d.in.Rects, mid, d.pack.Pos)
	}
	topSpan, topErr = d.rec(top, depth+1, sc, &topStats)
	wg.Wait()
	// Deterministic error choice: program order bot, mid, top.
	if botErr != nil {
		return 0, botErr
	}
	if midErr != nil {
		return 0, midErr
	}
	if topErr != nil {
		return 0, topErr
	}
	d.shift(mid, top, botSpan, midH)
	mergeStats(st, &botStats, &topStats)
	return botSpan + midH + topSpan, nil
}

// acquire claims a worker token without blocking.
func (d *dcRun) acquire() bool {
	select {
	case d.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// shift is the prefix-offset pass: the middle band moves up by the bot
// span, the top subtree by bot span plus band height, turning the three
// relative packings into one relative to this subtree's base line.
func (d *dcRun) shift(mid, top []int32, botSpan, midH float64) {
	for _, id := range mid {
		d.pack.Pos[id].Y += botSpan
	}
	off := botSpan + midH
	for _, id := range top {
		d.pack.Pos[id].Y += off
	}
}

func mergeStats(st, bot, top *DCStats) {
	st.Calls += bot.Calls + top.Calls
	if bot.MaxDepth > st.MaxDepth {
		st.MaxDepth = bot.MaxDepth
	}
	if top.MaxDepth > st.MaxDepth {
		st.MaxDepth = top.MaxDepth
	}
	st.Bands += bot.Bands + top.Bands + 1
}

// uniformHeight returns the common height of all rectangles, or an error if
// heights differ by more than Eps.
func uniformHeight(in *geom.Instance) (float64, error) {
	if in.N() == 0 {
		return 0, fmt.Errorf("precedence: empty instance")
	}
	h := in.Rects[0].H
	for _, r := range in.Rects {
		if math.Abs(r.H-h) > geom.Eps {
			return 0, fmt.Errorf("precedence: heights not uniform (%g vs %g)", r.H, h)
		}
	}
	return h, nil
}

// UniformStats reports the shelf accounting of Theorem 2.6.
type UniformStats struct {
	// Shelves is the number of shelves used (the bin count).
	Shelves int
	// Skips counts shelves closed with an empty ready queue (Lemma 2.5
	// bounds these by OPT).
	Skips int
	// ShelfHeight is the uniform rectangle height.
	ShelfHeight float64
}

// NextFitUniform runs the paper's algorithm F (§2.2) on a uniform-height
// instance: precedence Next-Fit over shelves of the common height. The
// resulting height is at most 3·OPT (Theorem 2.6).
func NextFitUniform(in *geom.Instance) (*geom.Packing, *UniformStats, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	h, err := uniformHeight(in)
	if err != nil {
		return nil, nil, err
	}
	g, err := dag.FromEdges(in.N(), in.Prec)
	if err != nil {
		return nil, nil, err
	}
	w := in.StripWidth()
	sizes := make([]float64, in.N())
	for i, r := range in.Rects {
		sizes[i] = r.W / w
	}
	res, err := binpack.PrecNextFit(sizes, g)
	if err != nil {
		return nil, nil, err
	}
	p, err := shelfPacking(in, &res.Assignment, res.Order, h)
	if err != nil {
		return nil, nil, err
	}
	return p, &UniformStats{Shelves: res.NumBins, Skips: res.Skips, ShelfHeight: h}, nil
}

// FirstFitUniform is the precedence First-Fit variant on shelves, the
// natural stronger heuristic measured in experiment E5.
func FirstFitUniform(in *geom.Instance) (*geom.Packing, *UniformStats, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	h, err := uniformHeight(in)
	if err != nil {
		return nil, nil, err
	}
	g, err := dag.FromEdges(in.N(), in.Prec)
	if err != nil {
		return nil, nil, err
	}
	w := in.StripWidth()
	sizes := make([]float64, in.N())
	for i, r := range in.Rects {
		sizes[i] = r.W / w
	}
	res, err := binpack.PrecFirstFit(sizes, g)
	if err != nil {
		return nil, nil, err
	}
	p, err := shelfPacking(in, &res.Assignment, res.Order, h)
	if err != nil {
		return nil, nil, err
	}
	return p, &UniformStats{Shelves: res.NumBins, Skips: res.Skips, ShelfHeight: h}, nil
}

// shelfPacking lays out a bin assignment as shelves of height h, placing
// items left to right within each shelf following the packer's placement
// order.
func shelfPacking(in *geom.Instance, a *binpack.Assignment, order []int, h float64) (*geom.Packing, error) {
	p := geom.NewPacking(in)
	x := make([]float64, a.NumBins)
	if order == nil {
		order = make([]int, in.N())
		for i := range order {
			order[i] = i
		}
	}
	for _, id := range order {
		b := a.Bin[id]
		p.Set(id, x[b], float64(b)*h)
		x[b] += in.Rects[id].W
		if x[b] > in.StripWidth()+geom.Eps {
			return nil, fmt.Errorf("precedence: shelf %d overflows the strip", b)
		}
	}
	return p, nil
}
