// fleetload is the streaming load harness for the sharded placement
// fleet: it pipelines workload generation → sharded placement → stat
// aggregation through bounded channels, so a million-task run holds only
// a few chunks in memory at a time instead of the whole trace.
//
//	fleetload -n 1000000 -shards 64 -k 16 -route least
//	fleetload -connect unix:/tmp/placementd.sock -n 1000000 ...
//	fleetload -tenants alpha:2:rr,beta:2:least -all-tenants ...
//
// The harness drives a service.Placer, so the same pipeline runs against
// an in-process fleet or a placementd daemon (-connect). In daemon mode
// the fleet-shape flags describe the daemon the client expects: the
// opHello handshake verifies them against the daemon's actual shape
// (everything that affects results) and refuses to run on a mismatch, so
// a summary always means what the flags say. The connection reconnects
// with capped exponential backoff; if the daemon restarts at a new epoch
// mid-stream (recovering a checkpoint), the harness resynchronizes from
// the daemon's per-tenant submitted meter — rewinding its deterministic
// stream to exactly where the recovered fleet left off — instead of
// double-submitting. -resume applies the same meter synchronization at
// startup, which is how a run continues a stream across a daemon
// kill+recover.
//
// Tenant ti's stream is generated from seed+ti with task IDs based at
// ti*n, so every tenant's trace is a pure function of the flags and the
// tenant index — the same whether tenants run one at a time (-tenant)
// or all concurrently (-all-tenants, one goroutine and connection per
// tenant). The per-tenant summary lines are therefore byte-identical
// between a concurrent all-tenants run and serial single-tenant runs,
// which `make determinism` enforces.
//
// The default output is deterministic — a pure function of every flag
// (the transport aside), whatever GOMAXPROCS is — which is what lets
// `make determinism` diff runs at GOMAXPROCS 1 and 8 AND across the
// in-process/daemon paths byte for byte. The `snapshots sha256` line
// hashes every shard's canonical wire-encoded snapshot, extending the
// byte-identical claim from the aggregate stats to the full final fleet
// state; the `tenant <name> ...` lines surface each driven tenant's
// meter (submitted/placed/refused/col-time) and the hash of its own
// shard range. -timing adds wall-clock throughput, placement-latency
// percentiles, and per-shard shed/rejected counters; the throughput and
// latency lines are non-deterministic, so determinism diffs leave
// -timing off.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/service"
	"strippack/internal/workload"
)

func usage() {
	fmt.Fprintf(os.Stderr, `fleetload: streaming churn/burst load over a fleet of online schedulers

usage: fleetload [flags]

`)
	flag.PrintDefaults()
}

func main() {
	n := flag.Int("n", 1_000_000, "number of tasks to stream per driven tenant")
	shards := flag.Int("shards", 64, "number of scheduler shards")
	k := flag.Int("k", 16, "columns per shard")
	shardCols := flag.String("shard-cols", "", "per-shard columns, e.g. 8,8,32,32 (overrides -k)")
	delay := flag.Float64("reconfig", 0, "per-task reconfiguration delay")
	routeName := flag.String("route", "least", "placement route: rr, least, or p2c")
	tenants := flag.String("tenants", "", "tenant groups, e.g. alpha:4:rr:1024:8,beta:60 (empty = one tenant)")
	tenant := flag.String("tenant", "", "tenant to drive (empty = first tenant)")
	allTenants := flag.Bool("all-tenants", false, "drive every tenant concurrently (one stream, goroutine and connection per tenant)")
	chunk := flag.Int("chunk", 1024, "tasks per pipelined batch")
	wl := flag.String("workload", "churn", "trace shape: churn or burst")
	load := flag.Float64("load", 0.8, "offered load per shard (fleet offers load*shards)")
	burstLoad := flag.Float64("burst-load", 2.4, "burst-phase per-shard load (burst workload)")
	period := flag.Int("period", 200, "burst cycle length in tasks")
	duty := flag.Int("duty", 100, "burst-phase tasks per cycle")
	shrink := flag.Float64("shrink", 0.3, "lifetime shrink floor in (0,1]")
	policyName := flag.String("policy", "compact", "completion policy: none, reclaim, or compact")
	admissionName := flag.String("admission", "shed", "admission policy: unbounded, reject, or shed")
	backlog := flag.Int("backlog", 64, "per-shard backlog bound for reject/shed")
	seed := flag.Int64("seed", 1, "workload and p2c rng seed (tenant ti streams from seed+ti)")
	connect := flag.String("connect", "", "drive a placementd daemon at unix:/path or tcp:host:port instead of an in-process fleet")
	retries := flag.Int("retries", 8, "connection attempts per (re)connect in daemon mode")
	resume := flag.Bool("resume", false, "start each driven tenant's stream at the daemon's submitted meter (continue after a daemon kill+recover)")
	timing := flag.Bool("timing", false, "report wall-clock throughput, latency percentiles and per-shard counters")
	flag.Usage = usage
	flag.Parse()

	cfg, err := buildConfig(*shards, *k, *shardCols, *delay, *policyName,
		*admissionName, *backlog, *routeName, *tenants, *seed)
	if err != nil {
		fatal(err)
	}
	if *allTenants && *tenant != "" {
		fatal(errors.New("-all-tenants and -tenant are mutually exclusive"))
	}

	placer, err := dialPlacer(cfg, *connect, *retries)
	if err != nil {
		fatal(err)
	}
	info, err := placer.Info()
	if err != nil {
		fatal(err)
	}

	// The stream offers load*shards against one shard's K columns: the
	// fleet-wide offered load per shard is then *load, while each task
	// still fits a single K-column device. Tenant ti streams from
	// seed+ti, so concurrent tenants generate independently and a
	// single-tenant rerun of any one of them reproduces its exact trace.
	makeStream := func(ti int) (*workload.Stream, error) {
		rng := rand.New(rand.NewSource(*seed + int64(ti)))
		switch *wl {
		case "churn":
			return workload.ChurnStream(rng, *n, *k, *load*float64(*shards), *shrink)
		case "burst":
			return workload.BurstStream(rng, *n, *k,
				*load*float64(*shards), *burstLoad*float64(*shards), *shrink, *period, *duty)
		}
		return nil, fmt.Errorf("unknown workload %q (want churn or burst)", *wl)
	}

	var driven []int
	tms := make(map[int]*timings)
	if *allTenants {
		for ti := range info.Tenants {
			driven = append(driven, ti)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		errs := make([]error, len(driven))
		for _, ti := range driven {
			p := placer
			if *connect != "" {
				// One connection per tenant: a Client is single-request,
				// and per-tenant connections let the daemon's lanes run
				// the submissions concurrently.
				c, err := dialClient(*connect, *retries)
				if err != nil {
					fatal(err)
				}
				p = c
			}
			wg.Add(1)
			go func(ti int, p service.Placer) {
				defer wg.Done()
				tm, err := driveTenant(p, ti, *n, makeStream, *chunk, *resume)
				mu.Lock()
				tms[ti], errs[ti] = tm, err
				mu.Unlock()
				if c, ok := p.(*service.Client); ok && p != placer {
					c.Close()
				}
			}(ti, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				fatal(err)
			}
		}
	} else {
		ti, err := resolveTenant(info, *tenant)
		if err != nil {
			fatal(err)
		}
		driven = []int{ti}
		tm, err := driveTenant(placer, ti, *n, makeStream, *chunk, *resume)
		if err != nil {
			fatal(err)
		}
		tms[ti] = tm
	}

	st, err := placer.Finish()
	if err != nil {
		fatal(err)
	}

	colsDesc := fmt.Sprintf("%d columns", *k)
	if *shardCols != "" {
		colsDesc = "columns " + *shardCols
	}
	fmt.Printf("fleetload: %d tasks, %d shards x %s, route=%s policy=%s admission=%s load=%g workload=%s chunk=%d seed=%d\n",
		st.Tasks, st.Shards, colsDesc, *routeName, *policyName, *admissionName, *load, *wl, *chunk, *seed)
	fmt.Printf("admitted %d  rejected %d  shed %d  (conserved: %v)\n",
		st.Admitted, st.Rejected, st.Shed, st.Admitted+st.Rejected+st.Shed == st.Tasks)
	fmt.Printf("makespan %.4f  utilization %.4f  mean wait %.4f  peak backlog %d\n",
		st.Makespan, st.Utilization, st.MeanWait, st.MaxBacklog)
	var minA, maxA int
	for i, ps := range st.PerShard {
		if i == 0 || ps.Admitted < minA {
			minA = ps.Admitted
		}
		if ps.Admitted > maxA {
			maxA = ps.Admitted
		}
	}
	fmt.Printf("per-shard admitted min %d max %d\n", minA, maxA)

	// Hash every shard's canonical snapshot (wire encoding, deterministic
	// bytes): the line is byte-identical across GOMAXPROCS values and across
	// the in-process/daemon paths iff the full final fleet state is.
	snaps := make([][]byte, st.Shards)
	h := sha256.New()
	for i := 0; i < st.Shards; i++ {
		snap, err := placer.SnapshotShard(i)
		if err != nil {
			fatal(err)
		}
		snaps[i] = service.EncodeSnapshot(snap)
		h.Write(snaps[i])
	}
	fmt.Printf("snapshots sha256 %x\n", h.Sum(nil))

	// Per-tenant summary: the meter and the hash of the tenant's own
	// shard range. Each driven tenant's lines depend only on its trace
	// and the config, so they are byte-identical between -all-tenants
	// and a serial run driving just that tenant.
	final, err := placer.Info()
	if err != nil {
		fatal(err)
	}
	for _, ti := range driven {
		tn := final.Tenants[ti]
		m := final.Meters[ti]
		fmt.Printf("tenant %s submitted %d placed %d refused %d col-time %.4f\n",
			tn.Name, m.Submitted, m.Placed, m.Refused, m.ColTime)
		th := sha256.New()
		for i := tn.First; i < tn.First+tn.Count; i++ {
			th.Write(snaps[i])
		}
		fmt.Printf("tenant %s snapshots sha256 %x\n", tn.Name, th.Sum(nil))
	}

	if *timing {
		for _, ti := range driven {
			tm := tms[ti]
			fmt.Printf("tenant %s sustained %.0f tasks/s  p50 %d ns/task  p99 %d ns/task  wall %s\n",
				final.Tenants[ti].Name, tm.rate, tm.p50, tm.p99, tm.wall.Round(time.Millisecond))
		}
		for i, ps := range st.PerShard {
			fmt.Printf("shard %d  shed %d  rejected %d\n", i, ps.Shed, ps.Rejected)
		}
	}
	if c, ok := placer.(*service.Client); ok {
		c.Close()
	}
}

// buildConfig resolves the fleet-shape flags shared with placementd into
// a fleet.Config.
func buildConfig(shards, k int, shardCols string, delay float64, policyName,
	admissionName string, backlog int, routeName, tenants string, seed int64) (fleet.Config, error) {
	var cfg fleet.Config
	policy, err := fpga.ParsePolicy(policyName)
	if err != nil {
		return cfg, err
	}
	admission, err := fpga.ParseAdmission(admissionName)
	if err != nil {
		return cfg, err
	}
	route, err := fleet.ParseRoute(routeName)
	if err != nil {
		return cfg, err
	}
	cols, err := fleet.ParseShardCols(shardCols)
	if err != nil {
		return cfg, err
	}
	tn, err := fleet.ParseTenants(tenants, route)
	if err != nil {
		return cfg, err
	}
	ac := fpga.AdmissionConfig{Policy: admission}
	if admission != fpga.AdmitAll {
		ac.MaxBacklog = backlog
	}
	return fleet.Config{
		Shards:        shards,
		Columns:       k,
		ShardCols:     cols,
		ReconfigDelay: delay,
		Policy:        policy,
		Admission:     ac,
		Route:         route,
		Tenants:       tn,
		Seed:          seed,
	}, nil
}

// dialClient opens one reconnecting connection to a placementd daemon.
func dialClient(connect string, retries int) (*service.Client, error) {
	network, addr, err := service.SplitAddr(connect)
	if err != nil {
		return nil, err
	}
	return service.Dial(func() (io.ReadWriter, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return conn, nil
	}, service.RetryConfig{Attempts: retries})
}

// dialPlacer returns the primary Placer to drive — an in-process fleet,
// or a reconnecting client to a placementd daemon whose shape is
// verified against cfg via the opHello handshake.
func dialPlacer(cfg fleet.Config, connect string, retries int) (service.Placer, error) {
	if connect == "" {
		f, err := fleet.New(cfg)
		if err != nil {
			return nil, err
		}
		return service.Local{Fleet: f}, nil
	}
	client, err := dialClient(connect, retries)
	if err != nil {
		return nil, err
	}
	got, err := client.Info()
	if err != nil {
		return nil, err
	}
	// The expected shape is what an in-process fleet with these flags
	// would report; building one guarantees the comparison tracks the
	// fleet's own resolution rules (implicit tenant, ShardCols, ...).
	// Shape() strips the live half of the handshake (epoch, meters): a
	// recovered daemon is still the same fleet.
	ref, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	want, _ := service.Local{Fleet: ref}.Info()
	if !reflect.DeepEqual(got.Shape(), want.Shape()) {
		return nil, fmt.Errorf("daemon at %s does not match the flags: it runs %+v, flags say %+v", connect, got.Shape(), want.Shape())
	}
	if got.Epoch > 1 {
		fmt.Fprintf(os.Stderr, "fleetload: daemon serving epoch %d (recovered)\n", got.Epoch)
	}
	return client, nil
}

func resolveTenant(in *service.Info, tenant string) (int, error) {
	if tenant == "" {
		return 0, nil
	}
	for i, t := range in.Tenants {
		if t.Name == tenant {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no tenant %q (have %d tenants)", tenant, len(in.Tenants))
}

// maxResyncs bounds how many daemon restarts one run will ride out.
const maxResyncs = 3

// driveTenant streams tenant ti's deterministic trace into p. With
// resume, and again after every ErrEpochChanged/ErrInterrupted from a
// daemon restart, the stream position is synchronized to the daemon's
// per-tenant submitted meter: the meter counts every task that entered
// the tenant's lane (placed or refused), so when this harness is the
// tenant's sole driver it equals the stream offset of the first task
// the recovered fleet has not seen.
func driveTenant(p service.Placer, ti, n int, makeStream func(int) (*workload.Stream, error),
	chunk int, resume bool) (*timings, error) {
	offset := 0
	if resume {
		in, err := p.Info()
		if err != nil {
			return nil, err
		}
		if ti >= len(in.Meters) {
			return nil, fmt.Errorf("tenant %d out of range (daemon has %d)", ti, len(in.Meters))
		}
		offset = in.Meters[ti].Submitted
		if offset > 0 {
			fmt.Fprintf(os.Stderr, "fleetload: tenant %d resuming at task %d\n", ti, offset)
		}
	}
	for resyncs := 0; ; resyncs++ {
		stream, err := makeStream(ti)
		if err != nil {
			return nil, err
		}
		if offset > n {
			offset = n
		}
		skipTasks(stream, offset)
		tm, err := streamInto(p, ti, stream, chunk, ti*n+offset)
		if err == nil {
			return tm, nil
		}
		c, ok := p.(*service.Client)
		if !ok || resyncs == maxResyncs ||
			(!errors.Is(err, service.ErrEpochChanged) && !errors.Is(err, service.ErrInterrupted)) {
			return nil, err
		}
		in, ierr := c.Info()
		if ierr != nil {
			return nil, fmt.Errorf("resynchronizing after %q: %w", err, ierr)
		}
		offset = in.Meters[ti].Submitted
		c.Rebase()
		fmt.Fprintf(os.Stderr, "fleetload: tenant %d: %v; resynchronized at task %d (epoch %d)\n",
			ti, err, offset, c.Epoch())
	}
}

// skipTasks advances a fresh stream past its first k tasks (generation
// is per-task, so the remaining trace is independent of how it is
// chunked or skipped).
func skipTasks(stream *workload.Stream, k int) {
	buf := make([]workload.ChurnTask, 4096)
	for k > 0 {
		m := stream.NextChunk(buf[:min(len(buf), k)])
		if m == 0 {
			return
		}
		k -= m
	}
}

type timings struct {
	rate float64 // sustained submissions/sec over the placement stage
	p50  int64   // per-task placement latency percentiles, ns
	p99  int64
	wall time.Duration
}

// streamInto drives the three-stage pipeline: a generator goroutine
// draining the stream into chunk buffers, the placement stage routing
// each chunk through the Placer, and an aggregator goroutine folding
// per-chunk samples. The channels are bounded (4 chunks in flight), so
// memory is O(chunk), not O(n). Task IDs start at base.
func streamInto(p service.Placer, ti int, stream *workload.Stream, chunk, base int) (*timings, error) {
	if chunk < 1 {
		return nil, fmt.Errorf("chunk must be >= 1, got %d", chunk)
	}
	type chunkSample struct {
		tasks   int
		elapsed time.Duration
	}
	chunks := make(chan []workload.ChurnTask, 4)
	samples := make(chan chunkSample, 4)
	quit := make(chan struct{})
	defer close(quit)

	go func() { // generation stage
		defer close(chunks)
		for {
			buf := make([]workload.ChurnTask, chunk)
			m := stream.NextChunk(buf)
			if m == 0 {
				return
			}
			select {
			case chunks <- buf[:m]:
			case <-quit: // placement aborted; stop generating
				return
			}
		}
	}()

	tmCh := make(chan timings, 1)
	go func() { // aggregation stage
		var total int
		var busy time.Duration
		var perTask []float64
		for s := range samples {
			total += s.tasks
			busy += s.elapsed
			perTask = append(perTask, float64(s.elapsed.Nanoseconds())/float64(s.tasks))
		}
		var tm timings
		if busy > 0 {
			tm.rate = float64(total) / busy.Seconds()
			tm.wall = busy
			sort.Float64s(perTask)
			tm.p50 = int64(perTask[len(perTask)/2])
			tm.p99 = int64(perTask[len(perTask)*99/100])
		}
		tmCh <- tm
	}()

	for tasks := range chunks { // placement stage
		t0 := time.Now()
		if _, err := p.Submit(ti, fleet.Specs(tasks, base)); err != nil {
			close(samples)
			<-tmCh
			return nil, err
		}
		samples <- chunkSample{tasks: len(tasks), elapsed: time.Since(t0)}
		base += len(tasks)
	}
	close(samples)
	tm := <-tmCh
	return &tm, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetload:", err)
	os.Exit(1)
}
