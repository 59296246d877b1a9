package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/service"
	"strippack/internal/workload"
)

type tenantDef struct {
	name   string
	shards int
	route  fleet.Route
}

// serveWorkload drives the placement service as cmd/placementd serves
// it: a service.Server over a unix socket in this process (the Placer
// passed to service.NewServer is the only seam where the calls into the
// fleet can be timed from outside), one service.Client connection and
// one driving goroutine per tenant.
type serveWorkload struct {
	name    string
	tenants []tenantDef // one entry: the fleet's implicit tenant
	// Trace shape, per shard of the tenant: a churn trace at load, or a
	// burst trace alternating load and burstLoad (period and duty in
	// tasks).
	burst        bool
	load         float64
	burstLoad    float64
	period, duty int
	frame        int     // tasks per submit frame
	prefixFrames int     // frames per tenant in the recovered checkpoint; 0 = fresh fleet.New
	frames       int     // frames per tenant each repeat sends
	rate         float64 // frames per second per tenant; 0 = closed loop
	ckptEvery    uint64  // submit frames between checkpoints; 0 = none
}

const (
	// cols is every shard's column count; shrink is the traces' lifetime
	// shrink floor.
	cols   = 16
	shrink = 0.3
	// admitBacklog is every shard's shed bound.
	admitBacklog = 64
	// setupSamples is the least number of set-ups setup_s is the median of.
	setupSamples = 5
)

var serveChurn = &serveWorkload{
	name:    "serve-churn",
	tenants: []tenantDef{{"default", 64, fleet.RouteLeast}},
	load:    0.8,
	frame:   1024, frames: 512,
}

var serveRestartBurst = &serveWorkload{
	name:    "serve-restart-burst",
	tenants: []tenantDef{{"alpha", 32, fleet.RouteRR}, {"beta", 32, fleet.RouteP2C}},
	burst:   true, load: 0.6, burstLoad: 2.4, period: 200, duty: 100,
	frame: 128, prefixFrames: 1172, frames: 375,
	rate: 125, ckptEvery: 250,
}

// subSeed derives an independent seed for one input stream.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

func (w *serveWorkload) config(seed int64) fleet.Config {
	cfg := fleet.Config{
		Columns:   cols,
		Policy:    fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: admitBacklog},
		Route:     w.tenants[0].route,
		Seed:      subSeed(seed, w.name+"/p2c"),
	}
	for _, t := range w.tenants {
		cfg.Shards += t.shards
		if len(w.tenants) > 1 {
			cfg.Tenants = append(cfg.Tenants, fleet.Tenant{Name: t.name, Shards: t.shards, Route: t.route})
		}
	}
	return cfg
}

// trace returns tenant ti's frames: those the recovered checkpoint holds,
// then those every repeat sends. Task IDs are unique across tenants.
func (w *serveWorkload) trace(seed int64, ti int) (prefix, frames [][]fpga.TaskSpec, err error) {
	t := w.tenants[ti]
	n := (w.prefixFrames + w.frames) * w.frame
	rng := rand.New(rand.NewSource(subSeed(seed, w.name+"/"+t.name)))
	shards := float64(t.shards)
	var st *workload.Stream
	if w.burst {
		st, err = workload.BurstStream(rng, n, cols, w.load*shards, w.burstLoad*shards, shrink, w.period, w.duty)
	} else {
		st, err = workload.ChurnStream(rng, n, cols, w.load*shards, shrink)
	}
	if err != nil {
		return nil, nil, err
	}
	buf := make([]workload.ChurnTask, w.frame)
	for i := 0; i < w.prefixFrames+w.frames; i++ {
		m := st.NextChunk(buf)
		fr := fleet.Specs(buf[:m], ti*n+i*w.frame)
		if i < w.prefixFrames {
			prefix = append(prefix, fr)
		} else {
			frames = append(frames, fr)
		}
	}
	return prefix, frames, nil
}

// writePrefix runs every tenant's prefix through a fleet and writes the
// checkpoint each repeat recovers.
func writePrefix(cfg fleet.Config, prefix [][][]fpga.TaskSpec, path string) error {
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	for ti, frames := range prefix {
		for _, fr := range frames {
			if _, err := f.SubmitBatchTenant(ti, fr); err != nil {
				return err
			}
		}
	}
	ck, err := service.CaptureCheckpoint(f, 1, 1)
	if err != nil {
		return err
	}
	return service.WriteCheckpoint(path, ck)
}

// countingConn counts the bytes a client connection carries.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}

// tracedPlacer times the server's calls into the fleet: Local.Submit is
// fleet.SubmitBatchTenant and Local.Finish is fleet.Finish.
type tracedPlacer struct {
	service.Local
	tr *tracer
}

func frameID(specs []fpga.TaskSpec) int {
	if len(specs) == 0 {
		return -1
	}
	return specs[0].ID
}

func (p tracedPlacer) Submit(ti int, specs []fpga.TaskSpec) ([]fleet.Placement, error) {
	t0 := time.Now()
	out, err := p.Local.Submit(ti, specs)
	p.tr.span("fleet.submit", t0, time.Now(), frameID(specs), noTimeline)
	return out, err
}

func (p tracedPlacer) Finish() (*fleet.Stats, error) {
	t0 := time.Now()
	st, err := p.Local.Finish()
	p.tr.span("fleet.finish", t0, time.Now(), -1, noTimeline)
	return st, err
}

// checkpointer is cmd/placementd's checkpointer, with spans around the
// capture and the write.
type checkpointer struct {
	f     *fleet.Fleet
	path  string
	epoch uint64
	seq   atomic.Uint64
	tr    *tracer
	sizes dist // file sizes, traced runs only
}

func (cp *checkpointer) write() (uint64, error) {
	seq := cp.seq.Add(1)
	t0 := time.Now()
	ck, err := service.CaptureCheckpoint(cp.f, cp.epoch, seq)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	if err := service.WriteCheckpoint(cp.path, ck); err != nil {
		return 0, err
	}
	cp.tr.span("service.ckpt_capture", t0, t1, -1, noTimeline)
	cp.tr.span("service.ckpt_write", t1, time.Now(), -1, noTimeline)
	if cp.tr != nil {
		if fi, err := os.Stat(cp.path); err == nil {
			cp.sizes = append(cp.sizes, float64(fi.Size()))
		}
	}
	return seq, nil
}

// session is one served fleet with its listener and client connections.
type session struct {
	f          *fleet.Fleet
	cp         *checkpointer
	ln         net.Listener
	clients    []*service.Client
	conns      []*countingConn // traced runs only
	done       chan struct{}
	served     sync.WaitGroup
	mu         sync.Mutex
	errs       []error // connection errors and checkpoint failures
	ckpts      int
	ckptFailed int
}

// setup builds or recovers the fleet, starts serving it on a unix socket
// and opens one handshaken client per tenant: everything before the first
// request can be sent.
func (w *serveWorkload) setup(rc runConfig, cfg fleet.Config, prefixPath string) (*session, error) {
	tr := rc.tr
	s := &session{done: make(chan struct{})}
	epoch, seq := uint64(1), uint64(0)
	t0 := time.Now()
	var err error
	if prefixPath == "" {
		s.f, err = fleet.New(cfg)
		tr.span("fleet.new", t0, time.Now(), -1, noTimeline)
	} else {
		var ck *service.Checkpoint
		s.f, ck, err = service.Recover(prefixPath, cfg, 1)
		tr.span("service.recover", t0, time.Now(), -1, noTimeline)
		if err == nil {
			epoch, seq = ck.Epoch+1, ck.Seq
		}
	}
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(rc.dir, "placement.sock")
	if s.ln, err = net.Listen("unix", sock); err != nil {
		return nil, err
	}
	var p service.Placer = service.Local{Fleet: s.f}
	if tr != nil {
		p = tracedPlacer{service.Local{Fleet: s.f}, tr}
	}
	srv := service.NewServer(p)
	srv.SetEpoch(epoch)
	s.cp = &checkpointer{f: s.f, path: filepath.Join(rc.dir, "checkpoint.ckpt"), epoch: epoch, tr: tr}
	s.cp.seq.Store(seq)
	srv.SetCheckpointer(s.cp.write)
	if w.ckptEvery > 0 {
		srv.AfterSubmit(func(total uint64) {
			if total%w.ckptEvery != 0 {
				return
			}
			t0 := time.Now()
			_, _, err := srv.Checkpoint()
			tr.span("service.checkpoint", t0, time.Now(), -1, noTimeline)
			s.mu.Lock()
			defer s.mu.Unlock()
			s.ckpts++
			if err != nil {
				s.ckptFailed++
				s.errs = append(s.errs, fmt.Errorf("checkpoint: %w", err))
			}
		})
	}
	go func() { // accept loop, as in cmd/placementd; ends when the listener closes
		defer close(s.done)
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			s.served.Add(1)
			go func() {
				defer s.served.Done()
				defer conn.Close()
				if err := srv.Serve(conn); err != nil {
					s.mu.Lock()
					s.errs = append(s.errs, fmt.Errorf("serving a connection: %w", err))
					s.mu.Unlock()
				}
			}()
		}
	}()
	for ti, t := range w.tenants {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			s.close()
			return nil, err
		}
		var rw io.ReadWriter = conn
		if tr != nil {
			cc := &countingConn{Conn: conn}
			s.conns = append(s.conns, cc)
			rw = cc
		}
		c := service.NewClient(rw)
		s.clients = append(s.clients, c)
		in, err := c.Info()
		if err == nil && (len(in.Tenants) != len(w.tenants) || in.Tenants[ti].Name != t.name || in.Epoch != epoch) {
			err = fmt.Errorf("handshake: server reports %d tenants at epoch %d, want tenant %q at epoch %d",
				len(in.Tenants), in.Epoch, t.name, epoch)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close disconnects every client, stops the listener and waits for every
// serving goroutine; it returns the connection and checkpoint errors.
func (s *session) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	s.ln.Close()
	<-s.done
	s.served.Wait()
	return errors.Join(s.errs...)
}

// frameLog is what one driving goroutine observed.
type frameLog struct {
	lat, lag dist // ms
	tasks    int
	errs     []error
}

// drive sends one tenant's frames: back to back in a closed loop, or in
// an open loop where frame k is due at start + k/rate. An open-loop
// frame's latency runs from when it was due, so a stall delays every
// frame that falls due while the generator waits on it; only when the
// generator was idle and its own sleep overran is the latency taken from
// when it woke, since that lateness is the load generator's (it is still
// counted in the send lag). Tenants' schedules are offset by an equal
// share of the interval, so independent tenants do not arrive in lock
// step.
func (w *serveWorkload) drive(c *service.Client, ti int, frames [][]fpga.TaskSpec, start time.Time, tr *tracer) frameLog {
	var lg frameLog
	interval := time.Duration(0)
	if w.rate > 0 {
		interval = time.Duration(float64(time.Second) / w.rate)
	}
	offset := interval * time.Duration(ti) / time.Duration(len(w.tenants))
	for k, fr := range frames {
		due := start.Add(time.Duration(k)*interval + offset)
		from := due
		if d := time.Until(due); interval > 0 && d > 0 {
			t0 := time.Now()
			time.Sleep(d)
			from = time.Now()
			tr.span("bench.pace", t0, from, fr[0].ID, ti)
		}
		sent := time.Now()
		if interval == 0 {
			due, from = sent, sent
		}
		placed, err := c.Submit(ti, fr)
		done := time.Now()
		lg.lat = append(lg.lat, ms(done.Sub(from)))
		if interval > 0 {
			lg.lag = append(lg.lag, ms(sent.Sub(due)))
		}
		lg.tasks += len(fr)
		if err == nil && len(placed) > len(fr) {
			err = fmt.Errorf("%d placements for %d tasks", len(placed), len(fr))
		}
		if err != nil {
			lg.errs = append(lg.errs, fmt.Errorf("tenant %d frame %d: %w", ti, fr[0].ID, err))
		}
		tr.span("service.submit", sent, done, fr[0].ID, ti)
		tr.span("bench.record", done, time.Now(), fr[0].ID, ti)
	}
	tr.wallTime(ti, start, time.Now())
	return lg
}

// tenantHashes returns the sha256 of each tenant's canonical shard
// snapshots.
func tenantHashes(f *fleet.Fleet) ([]string, error) {
	var out []string
	for ti := 0; ti < f.Tenants(); ti++ {
		name, first, count := f.TenantRange(ti)
		h := sha256.New()
		for i := first; i < first+count; i++ {
			snap, err := f.SnapshotShard(i)
			if err != nil {
				return nil, err
			}
			h.Write(service.EncodeSnapshot(snap))
		}
		out = append(out, fmt.Sprintf("tenant %s %x", name, h.Sum(nil)))
	}
	return out, nil
}

// makespanBound is a lower bound on the makespan of the tasks the fleet
// ran: no task ends before its release plus its duration, and no shard
// finishes before its busy column-time divided by its columns.
func makespanBound(f *fleet.Fleet) float64 {
	var lb float64
	for i := 0; i < f.Shards(); i++ {
		var area float64
		for _, t := range f.Shard(i).Schedule().Tasks {
			lb = max(lb, t.Release+t.Duration)
			area += float64(t.Cols) * t.Duration
		}
		lb = max(lb, area/float64(f.Cols(i)))
	}
	return lb
}

// verify checks one repeat's outputs: the fleet accounts for exactly the
// tasks the benchmark sent (the recovered prefix included), every
// tenant's snapshots match the first repeat's, and the makespan is no
// lower than its bound. It returns the makespan ratio and the tasks the
// lanes refused.
func verify(res *result, f *fleet.Fleet, st *fleet.Stats, sent int, hashes *[]string) (ratio float64, refused int) {
	submitted := 0
	for _, m := range f.Meters() {
		refused += m.Refused
		submitted += m.Submitted
	}
	res.check(st.Admitted+st.Rejected+st.Shed+refused == sent && submitted == sent,
		"conservation: admitted %d + rejected %d + shed %d + lane-refused %d (meters: %d submitted), benchmark sent %d",
		st.Admitted, st.Rejected, st.Shed, refused, submitted, sent)
	h, err := tenantHashes(f)
	res.check(err == nil, "snapshots: %v", err)
	if *hashes == nil {
		*hashes = h
	}
	for i := range h {
		res.check(h[i] == (*hashes)[i], "snapshots differ across repeats: %s, first repeat %s", h[i], (*hashes)[i])
	}
	lb := makespanBound(f)
	ratio = st.Makespan / lb
	res.check(lb > 0 && ratio >= 1-1e-9, "makespan %g below its lower bound %g", st.Makespan, lb)
	return ratio, refused
}

// serveRun is what the repeats of a serving run accumulate.
type serveRun struct {
	frames              [][][]fpga.TaskSpec // per tenant; released before the last live-heap reading
	prefixPath          string
	prefixTasks         int
	ph                  phase
	setups, rates       dist
	lat, lag            dist
	prevLat             dist // the previous measured repeat's latencies
	p99s                dist // latency p99 of each two consecutive measured repeats
	sent                int
	hashes              []string
	last                *fleet.Stats
	ratio, liveMB       float64
	refused             int
	reqBytes, respBytes int64
	ckpts               int
	ckptSizes           dist
}

func (w *serveWorkload) run(rc runConfig) (*result, error) {
	res := newResult()
	cfg := w.config(rc.seed)
	sr := &serveRun{frames: make([][][]fpga.TaskSpec, len(w.tenants))}
	prefix := make([][][]fpga.TaskSpec, len(w.tenants))
	for ti := range w.tenants {
		var err error
		if prefix[ti], sr.frames[ti], err = w.trace(rc.seed, ti); err != nil {
			return nil, err
		}
	}
	if w.prefixFrames > 0 {
		sr.prefixPath = filepath.Join(rc.dir, "prefix.ckpt")
		if err := writePrefix(cfg, prefix, sr.prefixPath); err != nil {
			return nil, fmt.Errorf("writing the recovered prefix: %w", err)
		}
		sr.prefixTasks = len(w.tenants) * w.prefixFrames * w.frame
	}
	prefix = nil

	// The first repeat is a warm-up: it grows the heap and faults in the
	// memory every later repeat reuses, as a long-running daemon would
	// have done. It is checked but not measured.
	warm := rc
	warm.tr = nil
	if _, err := w.repeat(res, sr, warm, cfg, func() bool { return false }, true); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(rc.seconds)
	for {
		final := func() bool { return len(sr.p99s) > 0 && !time.Now().Before(deadline) }
		done, err := w.repeat(res, sr, rc, cfg, final, false)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	for len(sr.setups) < setupSamples {
		t0 := time.Now()
		sess, err := w.setup(rc, cfg, sr.prefixPath)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sr.setups = append(sr.setups, time.Since(t0).Seconds())
		if err := sess.close(); err != nil {
			return nil, err
		}
		if err := rc.tr.flush(); err != nil {
			return nil, err
		}
	}
	for _, h := range sr.hashes {
		res.digest("snapshot-sha256 " + h)
	}
	fmt.Printf("repeats %d  tasks sent %d (+%d recovered per repeat)  checkpoints %d\n",
		len(sr.rates), sr.sent, sr.prefixTasks, sr.ckpts)
	if err := w.endToEnd(res, sr); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		if err := w.perLayer(res, sr, rc.tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// repeat runs one set-up, timed phase and check, and reports whether it
// was the last repeat. A warm-up repeat's figures are discarded.
func (w *serveWorkload) repeat(res *result, sr *serveRun, rc runConfig, cfg fleet.Config, final func() bool, warm bool) (bool, error) {
	t0 := time.Now()
	sess, err := w.setup(rc, cfg, sr.prefixPath)
	if sr.prefixPath != "" {
		res.op(err) // the recovery
	}
	if err != nil {
		return false, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0)
	var r0, w0 []int64
	for _, cc := range sess.conns {
		r0, w0 = append(r0, cc.read.Load()), append(w0, cc.written.Load())
	}

	var ph phase
	ph.start()
	start := time.Now()
	logs := make([]frameLog, len(w.tenants))
	var wg sync.WaitGroup
	for ti := range w.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[ti] = w.drive(sess.clients[ti], ti, sr.frames[ti], start, rc.tr)
		}()
	}
	wg.Wait()
	fs := time.Now()
	st, finishErr := sess.clients[0].Finish()
	fe := time.Now()
	ph.stop()
	rc.tr.span("service.finish", fs, fe, -1, len(w.tenants))
	rc.tr.wallTime(len(w.tenants), fs, fe)
	res.op(finishErr) // Finish includes the simulator re-verification
	var lat, lag dist
	tasks := 0
	for _, lg := range logs {
		res.attempted += len(lg.lat)
		res.failed += len(lg.errs)
		for _, e := range lg.errs {
			res.problems = append(res.problems, e.Error())
		}
		lat, lag = append(lat, lg.lat...), append(lag, lg.lag...)
		tasks += lg.tasks
	}
	rate := float64(tasks) / fe.Sub(start).Seconds()
	label := fmt.Sprintf("repeat %d", len(sr.rates)+1)
	if warm {
		label = "warm-up"
	}
	fmt.Printf("%s: set-up %.3f ms  %.0f tasks/s  latency p50 %.3f ms %s  finish %.1f ms\n",
		label, ms(setup), rate, lat.median(), nOf(len(lat), "frames"), ms(fe.Sub(fs)))
	if !warm && sr.prevLat != nil {
		win := append(append(dist(nil), sr.prevLat...), lat...)
		p99, note, err := win.pct(0.99, "latency p99 of two repeats")
		if err != nil {
			return false, err
		}
		sr.p99s = append(sr.p99s, p99)
		fmt.Printf("  latency of this and the previous repeat: p50 %.3f ms  p99 %.3f ms %s\n", win.median(), p99, note)
	}
	last := !warm && final()
	if !warm {
		sr.setups = append(sr.setups, setup.Seconds())
		sr.ph.add(&ph)
		sr.rates = append(sr.rates, rate)
		sr.prevLat = lat
		sr.lat, sr.lag = append(sr.lat, lat...), append(sr.lag, lag...)
		sr.sent += tasks
		for i, cc := range sess.conns {
			sr.reqBytes += cc.written.Load() - w0[i]
			sr.respBytes += cc.read.Load() - r0[i]
		}
		sr.ckpts += sess.ckpts
		sr.ckptSizes = append(sr.ckptSizes, sess.cp.sizes...)
	}
	if last {
		sr.frames = nil // release the trace: the live heap is the served fleet's
		sr.liveMB = liveHeapMB()
	}
	if finishErr == nil {
		sr.last = st
		sr.ratio, sr.refused = verify(res, sess.f, st, sr.prefixTasks+tasks, &sr.hashes)
	}
	closeErr := sess.close()
	res.attempted += sess.ckpts
	res.failed += sess.ckptFailed
	if closeErr != nil {
		res.problems = append(res.problems, closeErr.Error())
	}
	if err := rc.tr.flush(); err != nil {
		return false, err
	}
	return last, nil
}

func (w *serveWorkload) endToEnd(res *result, sr *serveRun) error {
	if sr.last == nil {
		return errors.New("no repeat finished")
	}
	pooled, pooledNote, err := sr.lat.pct(0.99, "pooled latency p99")
	if err != nil {
		return err
	}
	fmt.Printf("latency p99 over all repeats %.3f ms %s\n", pooled, pooledNote)
	tasks := float64(sr.sent)
	st := sr.last
	res.set("tasks_per_s", sr.rates.median(), fmt.Sprintf("(median of %d repeats)", len(sr.rates)))
	res.set("latency_p50_ms", sr.lat.median(), nOf(len(sr.lat), "frames"))
	res.set("latency_p99_ms", sr.p99s.sorted()[0], fmt.Sprintf("(lowest of %d p99s, each over %d frames of two consecutive repeats)",
		len(sr.p99s), 2*w.frames*len(w.tenants)))
	res.set("cpu_us_per_task", float64(sr.ph.cpu.Nanoseconds())/1e3/tasks, nOf(sr.sent, "tasks"))
	res.set("alloc_bytes_per_task", float64(sr.ph.allocBytes)/tasks, nOf(sr.sent, "tasks"))
	res.set("live_heap_mb", sr.liveMB, "(after the last Finish, trace released)")
	res.set("peak_rss_mb", peakRSSMB(), "")
	res.set("setup_s", sr.setups.median(), nOf(len(sr.setups), "set-ups"))
	res.set("ok_frac", float64(res.attempted-res.failed)/float64(res.attempted), nOf(res.attempted, "operations"))
	res.set("admitted_frac", float64(st.Admitted)/float64(st.Tasks+sr.refused), nOf(st.Tasks+sr.refused, "tasks incl. recovered"))
	res.set("mean_wait", st.MeanWait, "")
	res.set("utilization", st.Utilization, "")
	res.set("height_ratio", sr.ratio, "(makespan over its lower bound)")
	return nil
}

// perLayer fills the per-layer metrics of a traced serving run.
func (w *serveWorkload) perLayer(res *result, sr *serveRun, tr *tracer) error {
	tasks := float64(sr.sent)
	d := tr.durs
	rtt99, rttNote, err := d["service.submit"].pct(0.99, "service.rtt_p99_us")
	if err != nil {
		return err
	}
	fleet99, fleetNote, err := d["fleet.submit"].pct(0.99, "fleet.submit_p99_us")
	if err != nil {
		return err
	}
	frames := nOf(len(tr.frameSelf), "frames")
	res.layer("service.self_ns_per_task", tr.frameSelf.sum()/tasks, frames)
	res.layer("service.req_bytes_per_task", float64(sr.reqBytes)/tasks, "")
	res.layer("service.resp_bytes_per_task", float64(sr.respBytes)/tasks, "")
	res.layer("service.rtt_p50_us", d["service.submit"].median()/1e3, frames)
	res.layer("service.rtt_p99_us", rtt99/1e3, rttNote)
	res.layer("service.self_us_per_frame", tr.frameSelf.median()/1e3, frames)
	if sr.prefixPath != "" {
		fi, err := os.Stat(sr.prefixPath)
		if err != nil {
			return err
		}
		res.layer("service.recover_ms", d["service.recover"].median()/1e6, nOf(len(d["service.recover"]), "recoveries"))
		res.layer("service.recover_bytes", float64(fi.Size()), "")
	}
	if sr.ckpts > 0 {
		n := nOf(sr.ckpts, "checkpoints")
		res.layer("service.ckpt_count", float64(sr.ckpts), "")
		res.layer("service.ckpt_capture_ms", d["service.ckpt_capture"].median()/1e6, n)
		res.layer("service.ckpt_write_ms", d["service.ckpt_write"].median()/1e6, n)
		res.layer("service.ckpt_lane_wait_ms", d["service.ckpt_lane_wait"].median()/1e6, n)
		res.layer("service.ckpt_bytes", sr.ckptSizes.median(), n)
	}
	res.layer("fleet.submit_ns_per_task", d["fleet.submit"].sum()/tasks, frames)
	res.layer("fleet.submit_p99_us", fleet99/1e3, fleetNote)
	res.layer("fleet.submit_us_per_frame", d["fleet.submit"].median()/1e3, frames)
	res.layer("fleet.finish_ms", d["fleet.finish"].median()/1e6, nOf(len(d["fleet.finish"]), "finishes"))
	if n := len(d["fleet.new"]); n > 0 {
		res.layer("fleet.new_ms", d["fleet.new"].median()/1e6, nOf(n, "set-ups"))
	}
	st := sr.last
	var passes, moved int
	for _, ps := range st.PerShard {
		passes += ps.CompactPasses
		moved += ps.TasksMoved
	}
	ktasks := float64(st.Tasks) / 1e3
	res.layer("fpga.compact_passes_per_ktask", float64(passes)/ktasks, nOf(st.Tasks, "tasks in the fleet"))
	res.layer("fpga.tasks_moved_per_ktask", float64(moved)/ktasks, nOf(st.Tasks, "tasks in the fleet"))
	res.layer("fpga.shed", float64(st.Shed), "")
	res.layer("fpga.rejected", float64(st.Rejected), "")
	res.layer("fpga.peak_backlog", float64(st.MaxBacklog), "")
	if w.rate > 0 {
		lag99, note, err := sr.lag.pct(0.99, "bench.send_lag_p99_ms")
		if err != nil {
			return err
		}
		res.layer("bench.send_lag_p99_ms", lag99, note)
	}
	runtimeLayer(res, &sr.ph, tasks)
	return nil
}
