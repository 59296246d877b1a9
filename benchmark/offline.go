package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"strippack"
	"strippack/internal/workload"
)

// outcome is one facade call's result: a packing with its height and the
// bound the facade reports for it, or (packing nil) a bare lower bound.
type outcome struct {
	packing       *strippack.Packing
	height, bound float64
}

// offlineKind is one kind of call in the offline-pack corpus. The counts
// give each kind a similar share of a pass's time (about 0.2 s on a
// 2-core Xeon), and are large enough that the corpus's total work varies
// little from seed to seed. ScheduleOnline calls are the slowest by a
// wide margin and under 3% of the calls, so the p99 falls inside their
// own spread instead of on whichever calls a collection or the host
// happened to slow.
type offlineKind struct {
	span  string // the layer span around the call
	count int    // instances per pass
	gen   func(*rand.Rand) *strippack.Instance
	call  func(*strippack.Instance) (outcome, error)
	// bound, when set, computes the ratio's bound outside the timed call.
	bound func(*strippack.Instance) (float64, error)
	// boundOnly marks a call that returns a lower bound and no packing.
	boundOnly bool
	// perKrect and ratio name the kind's per-layer metrics: call time per
	// thousand rectangles and the geometric mean height ratio.
	perKrect, ratio string
}

var offlineKinds = []offlineKind{
	{span: "precedence.dc", count: 20, perKrect: "precedence.dc_ms_per_krect", ratio: "precedence.dc_ratio",
		gen: func(rng *rand.Rand) *strippack.Instance { return workload.DAGWorkload(rng, 4000, 32, 0.1) },
		call: func(in *strippack.Instance) (outcome, error) {
			r, err := strippack.PackDC(in)
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Packing, r.Height, r.LowerBound}, nil
		}},
	{span: "release.aptas", count: 40, perKrect: "release.aptas_ms_per_krect", ratio: "release.aptas_ratio",
		gen: func(rng *rand.Rand) *strippack.Instance { return workload.FPGA(rng, 5000, 8, 1250) },
		call: func(in *strippack.Instance) (outcome, error) {
			r, err := strippack.PackReleaseAPTAS(in, 1.5, 8)
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Packing, r.Height, r.FractionalHeight}, nil
		}},
	{span: "release.lp_bound", count: 45, boundOnly: true,
		gen: func(rng *rand.Rand) *strippack.Instance { return workload.FPGA(rng, 40, 8, 10) },
		call: func(in *strippack.Instance) (outcome, error) {
			b, err := strippack.FractionalLowerBound(in)
			return outcome{bound: b}, err
		}},
	{span: "kr.pack", count: 40, perKrect: "kr.pack_ms_per_krect", ratio: "kr.ratio",
		gen: func(rng *rand.Rand) *strippack.Instance { return workload.Uniform(rng, 5000, 0.05, 0.8, 0.05, 1) },
		call: func(in *strippack.Instance) (outcome, error) {
			r, err := strippack.PackKR(in, 0.5)
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Packing, r.Height, r.FractionalHeight}, nil
		}},
	{span: "fpga.online", count: 4, perKrect: "fpga.online_ms_per_ktask",
		gen: func(rng *rand.Rand) *strippack.Instance { return workload.FPGA(rng, 40000, 16, 10000) },
		call: func(in *strippack.Instance) (outcome, error) {
			p, err := strippack.ScheduleOnline(in, 16)
			if err != nil {
				return outcome{}, err
			}
			return outcome{packing: p, height: p.Height()}, nil
		},
		bound: strippack.LowerBoundPrecedence},
}

// corpusItem is one generated input: the raw rectangles and edges a
// caller holds before building the facade's instance.
type corpusItem struct {
	kind   int
	raw    *strippack.Instance
	greedy float64 // a feasible height: the ceiling for a lower bound
}

// offlineRef holds the first pass's results, which every later pass must
// reproduce, and the quality figures computed from them.
type offlineRef struct {
	digest               []byte
	ratios               [][]float64 // per kind
	waitSum, area, strip float64
	packed, placed       int // rectangles in packings, and in valid ones
}

// offlineRun is what the measured passes of an offline-pack run
// accumulate.
type offlineRun struct {
	ref         *offlineRef
	ph          phase
	setups, lat dist
	// Per measured pass: rectangles per second of call time, and CPU
	// microseconds per rectangle.
	rates, cpus dist
	kindLat     []dist // per kind, ms
	kindRects   []int  // per kind
	validateNs  float64
	validated   int
}

func newOfflineRun(ref *offlineRef) *offlineRun {
	return &offlineRun{ref: ref, kindLat: make([]dist, len(offlineKinds)), kindRects: make([]int, len(offlineKinds))}
}

func runOfflinePack(rc runConfig) (*result, error) {
	res := newResult()
	var corpus []corpusItem
	for k, kind := range offlineKinds {
		for i := range kind.count {
			raw := kind.gen(rand.New(rand.NewSource(subSeed(rc.seed, fmt.Sprintf("offline-pack/%s/%d", kind.span, i)))))
			it := corpusItem{kind: k, raw: raw}
			if kind.boundOnly {
				p, err := strippack.PackReleaseGreedy(raw)
				if err != nil {
					return nil, err
				}
				it.greedy = p.Height()
			}
			corpus = append(corpus, it)
		}
	}
	// The first pass is a warm-up: checked, and the reference for every
	// later pass, but not measured.
	ref := &offlineRef{ratios: make([][]float64, len(offlineKinds))}
	newOfflineRun(ref).pass(res, nil, corpus, true)
	or := newOfflineRun(ref)
	deadline := time.Now().Add(rc.seconds)
	minPasses := (minSamples + len(corpus) - 1) / len(corpus)
	var outs []outcome
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		outs = or.pass(res, rc.tr, corpus, false)
		if err := rc.tr.flush(); err != nil {
			return nil, err
		}
	}
	corpus = nil // the live heap holds the last pass's packings, not the inputs
	liveMB := liveHeapMB()
	runtime.KeepAlive(outs)
	res.digest(fmt.Sprintf("offline-results %x", ref.digest))

	var callMs float64
	rects := 0
	fmt.Printf("passes %d  calls %d\n", len(or.setups), len(or.lat))
	for k, kind := range offlineKinds {
		l := or.kindLat[k]
		callMs += l.sum()
		rects += or.kindRects[k]
		fmt.Printf("calls %-17s total %7.1f ms  latency p50 %.3f ms %s\n", kind.span, l.sum(), l.median(), nOf(len(l), "calls"))
	}
	p99, p99note, err := or.lat.pct(0.99, "latency_p99_ms")
	if err != nil {
		return nil, err
	}
	var ratios []float64
	for _, r := range ref.ratios {
		ratios = append(ratios, r...)
	}
	perRect := nOf(rects, "rectangles")
	perPass := fmt.Sprintf("(median of %d passes, %d rectangles)", len(or.rates), rects)
	fmt.Printf("over all passes: %.0f rectangles/s, %.4f cpu us/rectangle\n",
		float64(rects)/(callMs/1e3), float64(or.ph.cpu.Nanoseconds())/1e3/float64(rects))
	res.set("tasks_per_s", or.rates.median(), perPass)
	res.set("latency_p50_ms", or.lat.median(), nOf(len(or.lat), "calls"))
	res.set("latency_p99_ms", p99, p99note)
	res.set("cpu_us_per_task", or.cpus.median(), perPass)
	res.set("alloc_bytes_per_task", float64(or.ph.allocBytes)/float64(rects), perRect)
	res.set("live_heap_mb", liveMB, "(the last pass's packings held)")
	res.set("peak_rss_mb", peakRSSMB(), "")
	res.set("setup_s", or.setups.median(), nOf(len(or.setups), "corpus builds"))
	res.set("ok_frac", float64(res.attempted-res.failed)/float64(res.attempted), nOf(res.attempted, "calls"))
	res.set("admitted_frac", float64(ref.placed)/float64(ref.packed), nOf(ref.packed, "rectangles in packings"))
	res.set("mean_wait", ref.waitSum/float64(ref.packed), "(start minus release)")
	res.set("utilization", ref.area/ref.strip, "(area over width x height)")
	res.set("height_ratio", geomean(ratios), nOf(len(ratios), "packings"))

	if rc.tr != nil {
		for k, kind := range offlineKinds {
			if kind.perKrect != "" {
				res.layer(kind.perKrect, or.kindLat[k].sum()/(float64(or.kindRects[k])/1e3), nOf(or.kindRects[k], "rectangles"))
			}
			if kind.ratio != "" {
				res.layer(kind.ratio, geomean(ref.ratios[k]), nOf(len(ref.ratios[k]), "packings"))
			}
		}
		lp := rc.tr.durs["release.lp_bound"]
		res.layer("release.lp_bound_ms", lp.median()/1e6, nOf(len(lp), "calls"))
		res.layer("geom.validate_ms_per_krect", or.validateNs/1e6/(float64(or.validated)/1e3), nOf(or.validated, "rectangles"))
		runtimeLayer(res, &or.ph, float64(rects))
	}
	return res, nil
}

// pass builds the facade's instances (the set-up), runs every call (the
// timed phase) and then checks every outcome. The first pass fills the
// reference every later pass must reproduce.
func (or *offlineRun) pass(res *result, tr *tracer, corpus []corpusItem, first bool) []outcome {
	t0 := time.Now()
	ins := make([]*strippack.Instance, len(corpus))
	for i, it := range corpus {
		in := strippack.New(it.raw.Width, it.raw.Rects)
		for _, e := range it.raw.Prec {
			in.AddEdge(e[0], e[1])
		}
		res.check(in.Validate() == nil, "corpus instance %d is invalid", i)
		ins[i] = in
	}
	or.setups = append(or.setups, time.Since(t0).Seconds())

	outs := make([]outcome, len(corpus))
	var ph phase
	ph.start()
	start := time.Now()
	var callNs int64
	rects := 0
	for i, it := range corpus {
		kind := &offlineKinds[it.kind]
		c0 := time.Now()
		out, err := kind.call(ins[i])
		c1 := time.Now()
		res.op(err)
		outs[i] = out
		or.lat = append(or.lat, ms(c1.Sub(c0)))
		or.kindLat[it.kind] = append(or.kindLat[it.kind], ms(c1.Sub(c0)))
		or.kindRects[it.kind] += ins[i].N()
		callNs += int64(c1.Sub(c0))
		rects += ins[i].N()
		tr.span(kind.span, c0, c1, -1, 0)
		tr.span("bench.record", c1, time.Now(), -1, 0)
	}
	ph.stop()
	or.ph.add(&ph)
	or.rates = append(or.rates, float64(rects)/(float64(callNs)/1e9))
	or.cpus = append(or.cpus, float64(ph.cpu.Nanoseconds())/1e3/float64(rects))

	h := sha256.New()
	for i, it := range corpus {
		kind := &offlineKinds[it.kind]
		out := &outs[i]
		c0 := time.Now()
		var invalid error
		if out.packing != nil {
			invalid = out.packing.Validate()
			c1 := time.Now()
			or.validateNs += float64(c1.Sub(c0))
			or.validated += ins[i].N()
			tr.span("geom.validate", c0, c1, -1, 0)
			res.check(invalid == nil, "%s on instance %d: invalid packing: %v", kind.span, i, invalid)
			c0 = c1
		}
		if kind.bound != nil {
			b, err := kind.bound(ins[i])
			res.check(err == nil, "%s on instance %d: bound: %v", kind.span, i, err)
			out.bound = b
			c1 := time.Now()
			tr.span("precedence.lower_bound", c0, c1, -1, 0)
			c0 = c1
		}
		if out.packing != nil {
			ratio := out.height / out.bound
			res.check(out.bound > 0 && ratio >= 1-1e-9, "%s on instance %d: height %g below its bound %g", kind.span, i, out.height, out.bound)
			if first {
				or.ref.ratios[it.kind] = append(or.ref.ratios[it.kind], ratio)
				or.ref.add(out.packing, invalid == nil)
			}
		} else {
			res.check(out.bound > 0 && out.bound <= it.greedy+1e-9,
				"%s on instance %d: bound %g outside (0, %g]", kind.span, i, out.bound, it.greedy)
		}
		for _, v := range []float64{out.height, out.bound} {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		tr.span("bench.record", c0, time.Now(), -1, 0)
	}
	sum := h.Sum(nil)
	if first {
		or.ref.digest = sum
	}
	res.check(string(sum) == string(or.ref.digest), "a pass's results differ from the first pass's")
	tr.wallTime(0, start, time.Now())
	return outs
}

// add folds one packing into the wait, area and placement totals.
func (ref *offlineRef) add(p *strippack.Packing, valid bool) {
	in := p.Instance
	for i, r := range in.Rects {
		ref.waitSum += p.Pos[i].Y - r.Release
		ref.area += r.Area()
	}
	ref.strip += in.StripWidth() * p.Height()
	ref.packed += in.N()
	if valid {
		ref.placed += in.N()
	}
}
