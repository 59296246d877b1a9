package strippack

// Benchmark harness: one benchmark per experiment table (E1..E15; `go run
// ./cmd/experiments -list` names them) plus micro-benchmarks of the
// substrates. Run
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks wrap the same drivers cmd/experiments uses, so
// their timings measure exactly the code that regenerates the tables.

import (
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"strippack/internal/binpack"
	"strippack/internal/core/precedence"
	"strippack/internal/core/release"
	"strippack/internal/dag"
	"strippack/internal/exact"
	"strippack/internal/experiments"
	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/lp"
	"strippack/internal/packing"
	"strippack/internal/service"
	"strippack/internal/workload"
)

// benchExperiment measures an experiment on the default worker pool
// (GOMAXPROCS workers); benchExperimentSerial pins the pool to one worker,
// so the pair quantifies the parallel engine's speedup on the same tables.
func benchExperiment(b *testing.B, id string) {
	benchExperimentWorkers(b, id, experiments.Parallelism)
}

func benchExperimentSerial(b *testing.B, id string) {
	benchExperimentWorkers(b, id, 1)
}

func benchExperimentWorkers(b *testing.B, id string, workers int) {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s missing", id)
	}
	prev := experiments.Parallelism
	experiments.Parallelism = workers
	defer func() { experiments.Parallelism = prev }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1DC(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2Fig1(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3NextFit(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4Fig2(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5PrecBin(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6APTAS(b *testing.B)    { benchExperiment(b, "E6") }
func BenchmarkE7LPScale(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8Rounding(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9Ablation(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10Grouping(b *testing.B) {
	benchExperiment(b, "E10")
}
func BenchmarkE11KR(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Online(b *testing.B) { benchExperiment(b, "E12") }

// Serial counterparts of the heaviest experiment tables: the ratio to the
// parallel benchmarks above is the worker-pool speedup.
func BenchmarkE1DCSerial(b *testing.B)    { benchExperimentSerial(b, "E1") }
func BenchmarkE6APTASSerial(b *testing.B) { benchExperimentSerial(b, "E6") }
func BenchmarkE12OnlineSerial(b *testing.B) {
	benchExperimentSerial(b, "E12")
}

// --- micro-benchmarks of the substrates ---

func benchDC1000(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(1))
	in := workload.DAGWorkload(rng, 1000, 16, 0.2)
	opts := &precedence.DCOptions{Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := precedence.DC(in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDC1000 is the serial DC hot path (directly comparable with the
// BENCH_1 baseline, whose recorder also ran single-core);
// BenchmarkDCParallel1000 runs the same instance on the GOMAXPROCS-wide
// subtree pool, so their ratio is the DC worker-pool speedup on this host.
func BenchmarkDC1000(b *testing.B)         { benchDC1000(b, 1) }
func BenchmarkDCParallel1000(b *testing.B) { benchDC1000(b, runtime.GOMAXPROCS(0)) }

func BenchmarkNFDH1000(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := workload.Uniform(rng, 1000, 0.05, 0.8, 0.05, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packing.NFDH(1, in.Rects); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBottomLeft1000(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := workload.Uniform(rng, 1000, 0.05, 0.5, 0.05, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packing.BLDH(1, in.Rects); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate1000(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := workload.Uniform(rng, 1000, 0.05, 0.5, 0.05, 1)
	p, err := PackNFDH(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrecNextFit500(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 500
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = 0.05 + 0.9*rng.Float64()
	}
	g := dag.RandomLayered(rng, n, 20, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binpack.PrecNextFit(sizes, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexConfigLP solves a configuration LP over every enumerated
// configuration (release.SolveEnumerated, the Kenyon-Rémila path).
func BenchmarkSimplexConfigLP(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := workload.FPGA(rng, 30, 4, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := release.SolveEnumerated(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCGConfigLP solves the identical configuration LP as
// BenchmarkSimplexConfigLP (same seed instance) by column generation, so
// the pair compares the enumerated and the column-generation solve of one
// LP.
func BenchmarkSolveCGConfigLP(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := workload.FPGA(rng, 30, 4, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := release.SolveCG(in, release.CGOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7CG solves the configuration LPs of the BENCH_1/BENCH_2 E7
// grid (Ks 2..6, the same seeded FPGA instances the old enumerating
// BenchmarkE7LPScale built and solved densely) through SolveCG, so its
// ns/op is directly comparable with BenchmarkE7LPScale across trajectory
// files. BenchmarkE7LPScale itself now measures the new, larger E7 table.
func BenchmarkE7CG(b *testing.B) {
	const seedE7 = 0xAB1<<8 | 0xE7 // experiments' E7 base seed
	Ks := []int{2, 3, 4, 5, 6}
	ins := make([]*Instance, len(Ks))
	for i, K := range Ks {
		rng := rand.New(rand.NewSource(seedE7 ^ int64(i)))
		ins[i] = workload.FPGA(rng, 24, K, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if _, _, err := release.SolveCG(in, release.CGOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE7CGPooled solves the identical five-instance grid as
// BenchmarkE7CG through one long-lived release.Solver whose pools were
// warmed by a single untimed pass, so the pair measures exactly what the
// cross-solve column pool buys on grid-shaped repeated solves.
func BenchmarkE7CGPooled(b *testing.B) {
	const seedE7 = 0xAB1<<8 | 0xE7
	Ks := []int{2, 3, 4, 5, 6}
	ins := make([]*Instance, len(Ks))
	for i, K := range Ks {
		rng := rand.New(rand.NewSource(seedE7 ^ int64(i)))
		ins[i] = workload.FPGA(rng, 24, K, 3)
	}
	s := release.NewSolver(release.CGOptions{})
	for _, in := range ins {
		if _, _, err := s.Solve(in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if _, _, err := s.Solve(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// boundServerStream is the repeated-request shape a long-running bound
// service sees: eight distinct K=4 FPGA instances over one width set,
// each requested six times, interleaved.
func boundServerStream() []*Instance {
	const distinct, repeats = 8, 6
	ins := make([]*Instance, distinct)
	for i := range ins {
		rng := rand.New(rand.NewSource(int64(37 + i)))
		ins[i] = workload.FPGA(rng, 24, 4, 3)
	}
	reqs := make([]*Instance, 0, distinct*repeats)
	for r := 0; r < repeats; r++ {
		reqs = append(reqs, ins...)
	}
	return reqs
}

// BenchmarkBoundServerFresh answers every request of the stream with a
// from-scratch SolveCG — the pre-pool baseline a bound service would pay.
func BenchmarkBoundServerFresh(b *testing.B) {
	reqs := boundServerStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range reqs {
			if _, err := release.FractionalLowerBound(in, release.CGOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBoundServerReplay serves the identical stream through a fresh
// BoundCache per iteration: repeats hit the answer cache, and the distinct
// instances after the first warm-start from the shared column pool.
func BenchmarkBoundServerReplay(b *testing.B) {
	reqs := boundServerStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := release.NewBoundCache(release.CGOptions{})
		for _, in := range reqs {
			if _, err := c.FractionalLowerBound(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchAddColumns appends one 512-column batch to a fresh revised-simplex
// master via the bulk AddColumns path or a loop of AddColumn calls — the
// pool-seeding hot path, where bulk grows every arena exactly once.
func benchAddColumns(b *testing.B, bulk bool) {
	const m, n, nnzPer = 64, 512, 8
	ops := make([]lp.Relation, m)
	rhs := make([]float64, m)
	for i := range ops {
		ops[i] = lp.GE
		rhs[i] = 1
	}
	rng := rand.New(rand.NewSource(31))
	costs := make([]float64, n)
	starts := make([]int32, n+1)
	idx := make([]int32, 0, n*nnzPer)
	val := make([]float64, 0, n*nnzPer)
	for c := 0; c < n; c++ {
		costs[c] = rng.Float64()
		r := rng.Intn(m - nnzPer)
		for k := 0; k < nnzPer; k++ {
			idx = append(idx, int32(r+k))
			val = append(val, 0.1+rng.Float64())
		}
		starts[c+1] = int32(len(idx))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := lp.NewRevised(ops, rhs)
		if err != nil {
			b.Fatal(err)
		}
		if bulk {
			if _, err := s.AddColumns(costs, starts, idx, val); err != nil {
				b.Fatal(err)
			}
		} else {
			for c := 0; c < n; c++ {
				if _, err := s.AddColumn(costs[c], idx[starts[c]:starts[c+1]], val[starts[c]:starts[c+1]]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkAddColumnsBulk512(b *testing.B)   { benchAddColumns(b, true) }
func BenchmarkAddColumnsSingle512(b *testing.B) { benchAddColumns(b, false) }

func BenchmarkExactN6(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	rects := make([]Rect, 6)
	for i := range rects {
		rects[i] = Rect{W: 0.2 + 0.4*rng.Float64(), H: 0.2 + 0.6*rng.Float64()}
	}
	in := New(1, rects)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Solve(in, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPTASEndToEnd(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	in := workload.FPGA(rng, 20, 3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := release.Pack(in, release.Options{Epsilon: 1.5, K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the offline-pack workload's calls, one layer at a time ---

// benchOffline times one facade call per op at the shape the benchmark's
// offline-pack workload uses for it (benchmark/offline.go), cycling over
// four seeded instances generated before the timer starts. `make
// bench-smoke` runs each once; compare runs with -benchmem -count.
func benchOffline(b *testing.B, gen func(*rand.Rand) *Instance, call func(*Instance) error) {
	ins := make([]*Instance, 4)
	for i := range ins {
		ins[i] = gen(rand.New(rand.NewSource(int64(i + 1))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(ins[i%len(ins)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineDC(b *testing.B) {
	benchOffline(b, func(rng *rand.Rand) *Instance { return workload.DAGWorkload(rng, 4000, 32, 0.1) },
		func(in *Instance) error { _, err := PackDC(in); return err })
}

func BenchmarkOfflineAPTAS(b *testing.B) {
	benchOffline(b, func(rng *rand.Rand) *Instance { return workload.FPGA(rng, 5000, 8, 1250) },
		func(in *Instance) error { _, err := PackReleaseAPTAS(in, 1.5, 8); return err })
}

func BenchmarkOfflineLPBound(b *testing.B) {
	benchOffline(b, func(rng *rand.Rand) *Instance { return workload.FPGA(rng, 40, 8, 10) },
		func(in *Instance) error { _, err := FractionalLowerBound(in); return err })
}

func BenchmarkOfflineKR(b *testing.B) {
	benchOffline(b, func(rng *rand.Rand) *Instance { return workload.Uniform(rng, 5000, 0.05, 0.8, 0.05, 1) },
		func(in *Instance) error { _, err := PackKR(in, 0.5); return err })
}

func BenchmarkOfflineOnline(b *testing.B) {
	benchOffline(b, func(rng *rand.Rand) *Instance { return workload.FPGA(rng, 40000, 16, 10000) },
		func(in *Instance) error { _, err := ScheduleOnline(in, 16); return err })
}

// BenchmarkOnlineSubmit100k pushes 100k tasks through the online
// scheduler on a 256-column device — the workload the run-list horizon
// (O(runs) submits instead of the old O(K·cols) window scan) exists for.
func BenchmarkOnlineSubmit100k(b *testing.B) {
	const K = 256
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	cols := make([]int, n)
	durs := make([]float64, n)
	rels := make([]float64, n)
	rel := 0.0
	for i := range cols {
		cols[i] = 1 + rng.Intn(K/4)
		durs[i] = 0.1 + rng.Float64()
		rel += 0.01 * rng.Float64()
		rels[i] = rel
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := fpga.NewOnlineScheduler(fpga.NewDevice(K))
		for j := 0; j < n; j++ {
			if _, err := o.Submit(j, "", cols[j], durs[j], rels[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSubmitBatch100k pushes the identical 100k-task stream (same
// seed, device and task mix as BenchmarkOnlineSubmit100k) through
// SubmitBatch in chunks of 256. Both go through the same placement path,
// so the two benchmarks differ only by the batch's sort and its one-shot
// slice growth.
func BenchmarkSubmitBatch100k(b *testing.B) {
	const K = 256
	const n = 100_000
	const chunk = 256
	rng := rand.New(rand.NewSource(11))
	specs := make([]fpga.TaskSpec, n)
	rel := 0.0
	for i := range specs {
		c := 1 + rng.Intn(K/4)
		d := 0.1 + rng.Float64()
		rel += 0.01 * rng.Float64()
		specs[i] = fpga.TaskSpec{ID: i, Cols: c, Duration: d, Release: rel}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := fpga.NewOnlineScheduler(fpga.NewDevice(K))
		for j := 0; j < n; j += chunk {
			end := j + chunk
			if end > n {
				end = n
			}
			if _, err := o.SubmitBatch(nil, specs[j:end]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchChurn replays a 100k-task churn stream (256-column device, 70%
// offered load, bounded lifetimes) through the completion engine under one
// policy — the steady-state OS workload the reclamation subsystem exists
// for. The replay includes the discrete-event re-verification RunChurn
// always performs. 0.70 sits below the device's fragmentation-limited
// effective capacity (~0.75 for tasks up to K/2 wide), keeping the
// waiting backlog bounded; past it the queue grows without bound and the
// per-completion compaction pass turns quadratic (see
// internal/fpga/DESIGN.md).
func benchChurn(b *testing.B, p fpga.Policy) {
	const K = 256
	const n = 100_000
	rng := rand.New(rand.NewSource(13))
	tasks, err := workload.Churn(rng, n, K, 0.70, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	d := fpga.NewDevice(K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fpga.RunChurn(tasks, d, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineChurn100k measures the full reclaim+compaction path;
// the NoReclaim variant isolates the cost of the completion engine's
// bookkeeping over the plain grow-only horizon.
func BenchmarkOnlineChurn100k(b *testing.B)          { benchChurn(b, fpga.ReclaimCompact) }
func BenchmarkOnlineChurn100kReclaim(b *testing.B)   { benchChurn(b, fpga.Reclaim) }
func BenchmarkOnlineChurn100kNoReclaim(b *testing.B) { benchChurn(b, fpga.NoReclaim) }

// benchDrainBacklog pins the incremental-compaction claim: each iteration
// builds a standing queue of q full-width tasks, then drains the first m
// completions. Every completion triggers a reclaim + compaction pass, but
// only the affected column heads are examined, so ns/op must stay flat as
// q grows. The old full-sweep compactor re-sorted and re-floored the
// entire waiting set per reclaim, making this pair diverge ~q-fold.
func benchDrainBacklog(b *testing.B, q int) {
	const K = 16
	const m = 1024 // completions measured per iteration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := fpga.NewOnlineSchedulerPolicy(fpga.NewDevice(K), fpga.ReclaimCompact)
		for j := 0; j < q; j++ {
			if _, err := o.SubmitBatch(nil, []fpga.TaskSpec{{ID: j, Cols: K, Duration: 1, Actual: 1}}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := o.AdvanceTo(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReclaimBacklog2k(b *testing.B)  { benchDrainBacklog(b, 2_048) }
func BenchmarkReclaimBacklog16k(b *testing.B) { benchDrainBacklog(b, 16_384) }

// benchOverload replays an n-task churn stream at 0.90 offered load —
// past the ~0.75 fragmentation capacity, so the stream genuinely
// overloads the device — under a bounded admission policy. The bound is
// what keeps a 100k-task overload run affordable at all.
func benchOverload(b *testing.B, ac fpga.AdmissionConfig) {
	const K = 16
	rng := rand.New(rand.NewSource(17))
	tasks, err := workload.Churn(rng, 100_000, K, 0.90, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	d := fpga.NewDevice(K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fpga.RunChurnAdmission(tasks, d, fpga.ReclaimCompact, ac); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverloadReject100k(b *testing.B) {
	benchOverload(b, fpga.AdmissionConfig{Policy: fpga.AdmitBounded, MaxBacklog: 64})
}
func BenchmarkOverloadShed100k(b *testing.B) {
	benchOverload(b, fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64})
}

// BenchmarkBurstShed100k drives bursty traffic (sustainable quiet phase,
// 3x overloaded bursts half the time) through the shed policy — the
// workload admission control exists for.
func BenchmarkBurstShed100k(b *testing.B) {
	const K = 16
	rng := rand.New(rand.NewSource(19))
	tasks, err := workload.Burst(rng, 100_000, K, 0.4, 1.2, 0.3, 200, 100)
	if err != nil {
		b.Fatal(err)
	}
	d := fpga.NewDevice(K)
	ac := fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fpga.RunChurnAdmission(tasks, d, fpga.ReclaimCompact, ac); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleetChurn streams a 100k-task churn trace across a 64-shard
// fleet through the same chunked pipeline cmd/fleetload runs, reporting
// the harness's headline metrics via ReportMetric: sustained tasks/s over
// the placement stage, p50/p99 per-task placement latency across chunk
// samples, and the shard count — the columns BENCH_6.json records.
func benchFleetChurn(b *testing.B, route fleet.Route) {
	const (
		K      = 16
		shards = 64
		n      = 100_000
		chunk  = 1024
	)
	b.ReportAllocs()
	b.ResetTimer()
	var busy time.Duration
	var perTask []float64
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(fleet.Config{
			Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
			Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64},
			Route:     route, Seed: 29,
		})
		if err != nil {
			b.Fatal(err)
		}
		stream, err := workload.ChurnStream(rand.New(rand.NewSource(29)), n, K, 0.8*shards, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]workload.ChurnTask, chunk)
		base := 0
		for {
			m := stream.NextChunk(buf)
			if m == 0 {
				break
			}
			t0 := time.Now()
			if _, err := f.SubmitBatch(fleet.Specs(buf[:m], base)); err != nil {
				b.Fatal(err)
			}
			el := time.Since(t0)
			busy += el
			perTask = append(perTask, float64(el.Nanoseconds())/float64(m))
			base += m
		}
		if err := f.Drain(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/busy.Seconds(), "tasks/s")
	sort.Float64s(perTask)
	b.ReportMetric(perTask[len(perTask)/2], "p50-ns/task")
	b.ReportMetric(perTask[len(perTask)*99/100], "p99-ns/task")
	b.ReportMetric(shards, "shards")
}

func BenchmarkFleetChurn100kRR(b *testing.B)    { benchFleetChurn(b, fleet.RouteRR) }
func BenchmarkFleetChurn100kLeast(b *testing.B) { benchFleetChurn(b, fleet.RouteLeast) }
func BenchmarkFleetChurn100kP2C(b *testing.B)   { benchFleetChurn(b, fleet.RouteP2C) }

// BenchmarkFleetRetained measures what a fleet holds per task it was
// sent, the figure serve-churn's live_heap_mb is made of: the workload's
// fleet shape (64 shards x 16 columns, least routing, compact, shed 64)
// fed as many tasks as one serve-churn repeat sends (512 frames of 1,024
// from a churn trace at load 0.8), with no transport. After a forced
// collection it reports the heap the fleet keeps alive, per task, as
// B/task-held. Only the submission is timed.
func BenchmarkFleetRetained(b *testing.B) {
	const (
		K      = 16
		shards = 64
		n      = 512 * 1024
		frame  = 1024
	)
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var held float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stream, err := workload.ChurnStream(rand.New(rand.NewSource(37)), n, K, 0.8*shards, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]workload.ChurnTask, frame)
		before := live()
		b.StartTimer()
		f, err := fleet.New(fleet.Config{
			Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
			Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64},
			Route:     fleet.RouteLeast, Seed: 37,
		})
		if err != nil {
			b.Fatal(err)
		}
		for base := 0; base < n; base += frame {
			m := stream.NextChunk(buf)
			if _, err := f.SubmitBatch(fleet.Specs(buf[:m], base)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		held = float64(live()-before) / n
		runtime.KeepAlive(f)
	}
	b.ReportMetric(held, "B/task-held")
}

// BenchmarkFleetBurstShed is the fleet stage of the serve-restart-burst
// workload without its transport and checkpoints: one tenant's shape (32
// shards x 16 columns, p2c, compact, shed 64) fed a burst trace at base
// load 0.6 and burst load 2.4 per shard in 128-task batches. At that
// overload compaction slides each placed task about ten times, which
// BenchmarkBurstShed100k (base 0.4, burst 1.2) barely reaches.
func BenchmarkFleetBurstShed(b *testing.B) {
	const (
		K      = 16
		shards = 32
		n      = 100_000
		batch  = 128
	)
	stream, err := workload.BurstStream(rand.New(rand.NewSource(31)), n, K, 0.6*shards, 2.4*shards, 0.3, 200, 100)
	if err != nil {
		b.Fatal(err)
	}
	var batches [][]fpga.TaskSpec
	buf := make([]workload.ChurnTask, batch)
	for base := 0; ; {
		m := stream.NextChunk(buf)
		if m == 0 {
			break
		}
		batches = append(batches, fleet.Specs(buf[:m], base))
		base += m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(fleet.Config{
			Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
			Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64},
			Route:     fleet.RouteP2C, Seed: 31,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, specs := range batches {
			if _, err := f.SubmitBatch(specs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServiceSubmitLoopback100k is BenchmarkFleetChurn100kLeast
// through the full service stack — Client → wire codec → Server → fleet
// over a net.Pipe loopback — so the delta against the direct benchmark is
// the cost of the transport layer (framing, codec, one synchronous round
// trip per chunk).
func BenchmarkServiceSubmitLoopback100k(b *testing.B) {
	const (
		K      = 16
		shards = 64
		n      = 100_000
		chunk  = 1024
	)
	b.ReportAllocs()
	b.ResetTimer()
	var busy time.Duration
	var perTask []float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := fleet.New(fleet.Config{
			Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
			Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64},
			Route:     fleet.RouteLeast, Seed: 29,
		})
		if err != nil {
			b.Fatal(err)
		}
		cc, sc := net.Pipe()
		go service.NewServer(service.Local{Fleet: f}).Serve(sc)
		client := service.NewClient(cc)
		stream, err := workload.ChurnStream(rand.New(rand.NewSource(29)), n, K, 0.8*shards, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		buf := make([]workload.ChurnTask, chunk)
		base := 0
		for {
			m := stream.NextChunk(buf)
			if m == 0 {
				break
			}
			t0 := time.Now()
			if _, err := client.Submit(0, fleet.Specs(buf[:m], base)); err != nil {
				b.Fatal(err)
			}
			el := time.Since(t0)
			busy += el
			perTask = append(perTask, float64(el.Nanoseconds())/float64(m))
			base += m
		}
		if err := client.Drain(); err != nil {
			b.Fatal(err)
		}
		client.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/busy.Seconds(), "tasks/s")
	sort.Float64s(perTask)
	b.ReportMetric(perTask[len(perTask)/2], "p50-ns/task")
	b.ReportMetric(perTask[len(perTask)*99/100], "p99-ns/task")
	b.ReportMetric(shards, "shards")
}

// BenchmarkServiceTenantParallel is the loopback benchmark's workload
// split across four tenant lanes driven concurrently — one connection,
// stream and goroutine per tenant against a single lane-locked Server.
// The speedup over BenchmarkServiceSubmitLoopback100k tracks available
// parallelism: num_cpu is reported so a flat result on a single-core
// runner is self-explaining rather than a regression.
func BenchmarkServiceTenantParallel(b *testing.B) {
	const (
		K       = 16
		tenants = 4
		perT    = 16 // shards per tenant
		n       = 25_000
		chunk   = 1024
	)
	tn := make([]fleet.Tenant, tenants)
	for ti := range tn {
		tn[ti] = fleet.Tenant{Name: string(rune('a' + ti)), Shards: perT, Route: fleet.RouteLeast}
	}
	traces := make([][]workload.ChurnTask, tenants)
	for ti := range traces {
		tr, err := workload.Churn(rand.New(rand.NewSource(29+int64(ti))), n, K, 0.8*perT, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		traces[ti] = tr
	}
	b.ReportAllocs()
	b.ResetTimer()
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := fleet.New(fleet.Config{
			Shards: tenants * perT, Columns: K, Policy: fpga.ReclaimCompact,
			Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64},
			Tenants:   tn, Seed: 29,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := service.NewServer(service.Local{Fleet: f})
		b.StartTimer()
		t0 := time.Now()
		var wg sync.WaitGroup
		for ti := 0; ti < tenants; ti++ {
			cc, sc := net.Pipe()
			go srv.Serve(sc)
			client := service.NewClient(cc)
			wg.Add(1)
			go func(ti int, c *service.Client) {
				defer wg.Done()
				defer c.Close()
				for off := 0; off < n; off += chunk {
					end := min(off+chunk, n)
					if _, err := c.Submit(ti, fleet.Specs(traces[ti][off:end], ti*n+off)); err != nil {
						b.Error(err)
						return
					}
				}
			}(ti, client)
		}
		wg.Wait()
		busy += time.Since(t0)
	}
	b.StopTimer()
	b.ReportMetric(float64(n*tenants)*float64(b.N)/busy.Seconds(), "tasks/s")
	b.ReportMetric(tenants, "tenants")
	b.ReportMetric(float64(runtime.NumCPU()), "num_cpu")
}

// checkpointFleet64 builds the 64-shard fleet the checkpoint benchmarks
// share: a 100k-task churn history under ReclaimCompact with a shed
// backlog, so every shard carries waiting tasks and compaction state.
func checkpointFleet64(b *testing.B) (fleet.Config, *fleet.Fleet) {
	const (
		K      = 16
		shards = 64
		n      = 100_000
	)
	cfg := fleet.Config{
		Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64},
		Route:     fleet.RouteLeast, Seed: 29,
	}
	f, err := fleet.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tasks, err := workload.Churn(rand.New(rand.NewSource(29)), n, K, 0.8*shards, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	for base := 0; base < n; base += 1024 {
		if _, err := f.SubmitBatch(fleet.Specs(tasks[base:min(base+1024, n)], base)); err != nil {
			b.Fatal(err)
		}
	}
	return cfg, f
}

// BenchmarkCheckpoint64Shards measures one durable checkpoint — capture,
// deterministic encode, sha256, atomic temp+rename write — of a 64-shard
// fleet carrying a 100k-task churn history: the pause placementd's
// periodic checkpoint inflicts at a batch barrier. The reported size is
// read from the written file after the timed loop.
func BenchmarkCheckpoint64Shards(b *testing.B) {
	_, f := checkpointFleet64(b)
	path := filepath.Join(b.TempDir(), "checkpoint.ckpt")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := service.CaptureCheckpoint(f, 1, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if err := service.WriteCheckpoint(path, ck); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "bytes")
	b.ReportMetric(float64(f.Shards()), "shards")
}

// BenchmarkRecover64Shards measures placementd's -recover of
// BenchmarkCheckpoint64Shards' file: read, checksum, decode, then restore
// every shard and lane into a fresh fleet.
func BenchmarkRecover64Shards(b *testing.B) {
	cfg, f := checkpointFleet64(b)
	ck, err := service.CaptureCheckpoint(f, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "checkpoint.ckpt")
	if err := service.WriteCheckpoint(path, ck); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := service.Recover(path, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(f.Shards()), "shards")
}

// BenchmarkSnapshotRestore measures the crash-recovery round trip
// (Snapshot -> RestoreScheduler, without the JSON encode) on a scheduler
// carrying a 10k-task history with a live backlog.
func BenchmarkSnapshotRestore(b *testing.B) {
	const K = 64
	rng := rand.New(rand.NewSource(23))
	tasks, err := workload.Churn(rng, 10_000, K, 0.90, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	o := fpga.NewOnlineSchedulerPolicy(fpga.NewDevice(K), fpga.ReclaimCompact)
	for id, ct := range tasks {
		spec := fpga.TaskSpec{ID: id, Cols: ct.Cols, Duration: ct.Duration, Actual: ct.Lifetime, Release: ct.Release}
		if _, err := o.SubmitBatch(nil, []fpga.TaskSpec{spec}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpga.RestoreScheduler(o.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFValues4096(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	in := workload.DAGWorkload(rng, 4096, 32, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := precedence.FValues(in); err != nil {
			b.Fatal(err)
		}
	}
}
