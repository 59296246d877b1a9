// Package service is the transport-agnostic request layer over the
// placement fleet: the same Placer interface is served by Local (direct
// calls into an in-process fleet.Fleet) and by Client (a deterministic
// length-prefixed binary protocol over any io.ReadWriter — a net.Conn to
// a placementd daemon, a net.Pipe loopback, or an in-memory buffer).
// Server relays the protocol onto any Placer, so transports compose.
//
// The contract that matters is equivalence: a trace driven through a
// Client against a Server wrapping a Local produces byte-identical
// placements, stats and canonical shard snapshots to the same trace
// driven through the Local directly. The codec never touches a float's
// bits, and the server serializes requests per tenant lane — one lock
// per tenant, resolved from the request before locking, so distinct
// tenants' submissions run concurrently on the fleet's disjoint lanes
// while fleet-wide operations (Info, Finish, Checkpoint) take every lane
// in ascending order. Per-tenant request order is what the fleet's
// determinism contract keys on, so the wire adds latency and
// cross-tenant interleaving but no behavior. See
// DESIGN.md for the frame format, the lane-locking rules, the checkpoint
// file format and the epoch/retry semantics.
package service

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
)

// Placer is the placement-service surface: the four requests the load
// harness and the benchmark send to a fleet, in-process or remote.
// Implementations must allow Submit calls for distinct tenants to run
// concurrently (fleet lanes guarantee this for Local); everything else
// may assume the exclusive access Server's lane locks provide. Restoring
// shards is not part of it: a daemon restores a whole fleet from a
// checkpoint (Recover) before it serves.
type Placer interface {
	// Info returns the fleet shape, tenant endpoints and per-tenant
	// meters.
	Info() (*Info, error)
	// Submit routes one batch within tenant ti and returns the
	// placements in shard-index order. Submit must not keep specs, or
	// anything pointing into it, after it returns: Server decodes every
	// frame into the same per-connection slice.
	Submit(ti int, specs []fpga.TaskSpec) ([]fleet.Placement, error)
	// SnapshotShard returns shard i's canonical snapshot.
	SnapshotShard(i int) (*fpga.Snapshot, error)
	// Finish drains, re-verifies and aggregates the run's stats.
	Finish() (*fleet.Stats, error)
}

// Local adapts an in-process fleet to the Placer interface.
type Local struct{ Fleet *fleet.Fleet }

func (l Local) Info() (*Info, error) {
	cfg := l.Fleet.Config()
	in := &Info{
		Shards:        cfg.Shards,
		Cols:          l.Fleet.ShardColumns(),
		ReconfigDelay: cfg.ReconfigDelay,
		Policy:        cfg.Policy,
		Admission:     cfg.Admission,
		Route:         cfg.Route,
		Seed:          cfg.Seed,
		Meters:        l.Fleet.Meters(),
	}
	for ti := 0; ti < l.Fleet.Tenants(); ti++ {
		name, first, count := l.Fleet.TenantRange(ti)
		tn := TenantInfo{Name: name, First: first, Count: count, Route: cfg.Route}
		if cfg.Tenants != nil {
			tn.Route = cfg.Tenants[ti].Route
			tn.MaxBacklog = cfg.Tenants[ti].MaxBacklog
			tn.MaxTaskCols = cfg.Tenants[ti].MaxTaskCols
		}
		in.Tenants = append(in.Tenants, tn)
	}
	return in, nil
}

func (l Local) Submit(ti int, specs []fpga.TaskSpec) ([]fleet.Placement, error) {
	return l.Fleet.SubmitBatchTenant(ti, specs)
}

func (l Local) SnapshotShard(i int) (*fpga.Snapshot, error) { return l.Fleet.SnapshotShard(i) }

func (l Local) Finish() (*fleet.Stats, error) { return l.Fleet.Finish() }

// Server relays the wire protocol's four requests (opHello, opSubmit,
// opSnapshot and opFinish) onto a Placer. One Server may serve many
// connections. Requests are serialized per tenant lane: the lane is
// resolved from the request payload (the tenant for opSubmit, the
// owning tenant for opSnapshot) before any lock is taken, so requests
// for distinct tenants execute concurrently. opHello, opFinish and
// Checkpoint are fleet-wide and take every lane lock in ascending index
// order — the total order that makes the mixed locking deadlock-free.
type Server struct {
	p     Placer
	lanes []sync.Mutex
	// laneOf maps shard index -> lane index; tenant index == lane index.
	laneOf []int
	epoch  uint64
	// ckpt, when set (SetCheckpointer), performs one durable checkpoint
	// under all lanes and returns its sequence number.
	ckpt        func() (uint64, error)
	afterSubmit func(total uint64)
	nSubmits    atomic.Uint64
}

// NewServer wraps a Placer for serving. The lane table is sized from the
// Placer's Info; a Placer whose Info fails (or reports no tenants) gets
// a single lane, which degrades to the old fully-serialized behavior.
func NewServer(p Placer) *Server {
	s := &Server{p: p}
	if in, err := p.Info(); err == nil && len(in.Tenants) > 0 {
		s.lanes = make([]sync.Mutex, len(in.Tenants))
		s.laneOf = make([]int, in.Shards)
		for ti, t := range in.Tenants {
			for i := t.First; i < t.First+t.Count && i < in.Shards; i++ {
				s.laneOf[i] = ti
			}
		}
	} else {
		s.lanes = make([]sync.Mutex, 1)
	}
	return s
}

// SetEpoch sets the run epoch reported in every opHello response (Info's
// Epoch). Must be called before Serve; a daemon bumps it on every
// restart so clients can detect recoveries.
func (s *Server) SetEpoch(e uint64) { s.epoch = e }

// SetCheckpointer installs the daemon's checkpoint function. It runs
// with every lane held (the fleet is quiescent) and returns the
// checkpoint's sequence number. Must be called before Serve.
func (s *Server) SetCheckpointer(fn func() (uint64, error)) { s.ckpt = fn }

// AfterSubmit installs a hook called after every successful opSubmit
// with the total number of submit frames served so far (from 1). The
// hook runs outside the lane locks; the daemon's -exit-after uses it to
// kill itself mid-churn deterministically. Must be set before Serve.
func (s *Server) AfterSubmit(fn func(total uint64)) { s.afterSubmit = fn }

// Checkpoint takes every lane (waiting out in-flight requests) and runs
// the configured checkpointer, returning the epoch and checkpoint
// sequence number. The daemon's periodic loop calls it, so checkpoints
// always observe a quiescent fleet at a batch barrier.
func (s *Server) Checkpoint() (epoch, seq uint64, err error) {
	if s.ckpt == nil {
		return 0, 0, errors.New("service: no checkpointer configured")
	}
	unlock := s.lockAll()
	defer unlock()
	seq, err = s.ckpt()
	return s.epoch, seq, err
}

// lockLane locks one lane (clamped: an out-of-range tenant still needs a
// lock to serialize its error path) and returns the unlock.
func (s *Server) lockLane(i int) func() {
	if i < 0 || i >= len(s.lanes) {
		i = 0
	}
	s.lanes[i].Lock()
	return s.lanes[i].Unlock
}

// lockAll locks every lane in ascending order and returns the unlock.
func (s *Server) lockAll() func() {
	for i := range s.lanes {
		s.lanes[i].Lock()
	}
	return func() {
		for i := len(s.lanes) - 1; i >= 0; i-- {
			s.lanes[i].Unlock()
		}
	}
}

// laneOfShard resolves the lane owning shard i (clamped like lockLane).
func (s *Server) laneOfShard(i int) int {
	if i < 0 || i >= len(s.laneOf) {
		return 0
	}
	return s.laneOf[i]
}

// connBuf is one served connection's reusable storage: the request
// payload, the specs a submit decodes into, and the response encoding.
// Every frame overwrites all three, which is why Placer.Submit must not
// keep its specs.
type connBuf struct {
	frame []byte
	specs []fpga.TaskSpec
	out   enc
}

// maxKeptSpecs is the most specs whose storage fits in maxKeptBuf.
const maxKeptSpecs = maxKeptBuf / int(unsafe.Sizeof(fpga.TaskSpec{}))

// reset readies the buffers for the next frame after payload was served,
// dropping any that outgrew maxKeptBuf bytes.
func (cb *connBuf) reset(payload []byte) {
	if cap(cb.specs) > maxKeptSpecs {
		cb.specs = nil
	}
	cb.frame = keep(payload)
	cb.out.b = keep(cb.out.b)
}

// Serve handles framed requests on one connection until EOF (clean
// disconnect, returns nil) or a transport/framing error. Request
// execution errors are returned to the client as opErr responses and do
// not terminate the connection.
func (s *Server) Serve(conn io.ReadWriter) error {
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	var cb connBuf
	for {
		payload, err := readFrame(r, cb.frame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		resp := s.handle(&cb, payload)
		if err := writeFrame(w, resp); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		cb.reset(payload)
	}
}

// handle decodes one request, executes it under the owning lane lock (or
// all lanes for fleet-wide ops) and encodes the response into cb.out,
// which the returned slice aliases. Decoding runs before any lock is
// taken — the lane is resolved from the decoded request, and a malformed
// body never holds up the fleet.
func (s *Server) handle(cb *connBuf, payload []byte) []byte {
	e := &cb.out
	e.b = e.b[:0]
	fail := func(err error) []byte {
		e.b = e.b[:0]
		e.op(opErr)
		e.str(err.Error())
		return e.b
	}
	if len(payload) == 0 {
		return fail(fmt.Errorf("%w: empty request", ErrMalformed))
	}
	op, d := payload[0], &dec{b: payload[1:]}
	switch op {
	case opHello:
		if err := d.done(); err != nil {
			return fail(err)
		}
		unlock := s.lockAll()
		in, err := s.p.Info()
		unlock()
		if err != nil {
			return fail(err)
		}
		in.Epoch = s.epoch
		e.op(opInfo)
		e.info(in)
	case opSubmit:
		ti := d.int()
		n := d.count(minSpecBytes)
		specs := slices.Grow(cb.specs[:0], n)[:n]
		for i := range specs {
			specs[i] = d.taskSpec()
		}
		cb.specs = specs
		if err := d.done(); err != nil {
			return fail(err)
		}
		unlock := s.lockLane(ti)
		placed, err := s.p.Submit(ti, specs)
		unlock()
		if err != nil {
			return fail(err)
		}
		e.op(opPlacements)
		e.count(len(placed))
		for i := range placed {
			e.int(placed[i].Shard)
			e.task(&placed[i].Task)
		}
		if total := s.nSubmits.Add(1); s.afterSubmit != nil {
			s.afterSubmit(total)
		}
	case opSnapshot:
		i := d.int()
		if err := d.done(); err != nil {
			return fail(err)
		}
		unlock := s.lockLane(s.laneOfShard(i))
		snap, err := s.p.SnapshotShard(i)
		unlock()
		if err != nil {
			return fail(err)
		}
		e.op(opSnapData)
		e.snapshot(snap)
	case opFinish:
		if err := d.done(); err != nil {
			return fail(err)
		}
		unlock := s.lockAll()
		st, err := s.p.Finish()
		unlock()
		if err != nil {
			return fail(err)
		}
		e.op(opStats)
		e.stats(st)
	default:
		return fail(fmt.Errorf("%w: unknown opcode %d", ErrProtocol, op))
	}
	return e.b
}

// Typed client errors for the reconnect/retry machinery.
var (
	// ErrRemote wraps an error the server executed and reported: the
	// connection is healthy and the request was definitively not
	// applied, so retrying the same request is pointless.
	ErrRemote = errors.New("service: remote error")
	// ErrEpochChanged is surfaced by a non-idempotent call after the
	// client reconnected to a different epoch than the caller last
	// acknowledged: the daemon restarted (possibly recovering an older
	// checkpoint), so the caller must resynchronize — query Info's
	// meters, rewind its stream, then Rebase — instead of resubmitting
	// blindly and double-placing tasks.
	ErrEpochChanged = errors.New("service: daemon epoch changed")
	// ErrInterrupted is surfaced by a non-idempotent call whose
	// connection died mid-request: the daemon may or may not have
	// applied it. The caller must resynchronize exactly as for
	// ErrEpochChanged before resubmitting.
	ErrInterrupted = errors.New("service: connection lost mid-submit; outcome unknown")
)

// RetryConfig tunes a dialing Client's reconnect behavior. Backoff is
// capped exponential: attempt n (from the second one on) sleeps
// min(Base<<(n-1), Cap) first.
type RetryConfig struct {
	// Attempts bounds connection attempts per reconnect (default 8).
	Attempts int
	// Base is the first backoff delay (default 50ms).
	Base time.Duration
	// Cap bounds each backoff delay (default 2s).
	Cap time.Duration
	// Sleep replaces time.Sleep — a test hook for deterministic backoff
	// assertions.
	Sleep func(time.Duration)
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.Attempts <= 0 {
		rc.Attempts = 8
	}
	if rc.Base <= 0 {
		rc.Base = 50 * time.Millisecond
	}
	if rc.Cap <= 0 {
		rc.Cap = 2 * time.Second
	}
	if rc.Sleep == nil {
		rc.Sleep = time.Sleep
	}
	return rc
}

func (rc RetryConfig) backoff(n int) time.Duration {
	d := rc.Base
	for i := 0; i < n && d < rc.Cap; i++ {
		d *= 2
	}
	if d > rc.Cap {
		d = rc.Cap
	}
	return d
}

// Client speaks the wire protocol over one connection and implements
// Placer. Calls are synchronous (one request in flight); a Client is not
// safe for concurrent use — open one connection per concurrent caller.
//
// A Client from NewClient is bound to its single connection: transport
// errors are returned as-is. A Client from Dial owns a redial function
// and survives daemon restarts: idempotent requests (everything except
// Submit) transparently reconnect with capped exponential backoff and
// retry; Submit never silently retries — a connection lost mid-submit
// surfaces ErrInterrupted, and a submit attempted after the daemon's
// epoch moved past the caller's last-acknowledged one surfaces
// ErrEpochChanged. Both mean: resynchronize from Info's meters, then
// Rebase, then resubmit the unacknowledged tail.
type Client struct {
	r     *bufio.Reader
	w     *bufio.Writer
	c     io.Closer // nil when conn does not implement io.Closer
	frame []byte    // response payload storage, reused across calls
	req   enc       // request encoding, reused across calls

	dial   func() (io.ReadWriter, error) // nil for NewClient clients
	retry  RetryConfig
	alive  bool
	epoch  uint64 // epoch of the current connection's handshake
	pinned uint64 // epoch the caller last acknowledged (see Rebase)
}

// NewClient wraps a single connection, with no reconnect behavior.
// Close the Client (or the underlying conn) when done; the daemon
// treats a closed connection as a clean disconnect.
func NewClient(conn io.ReadWriter) *Client {
	c := &Client{alive: true}
	c.setConn(conn)
	return c
}

// Dial builds a reconnecting Client: dial is invoked (with rc's backoff
// schedule) for the initial connection and after any transport failure,
// and each new connection is handshaken with opHello to learn the
// daemon's epoch. The initial epoch is acknowledged automatically.
func Dial(dial func() (io.ReadWriter, error), rc RetryConfig) (*Client, error) {
	c := &Client{dial: dial, retry: rc.withDefaults()}
	if err := c.reconnect(); err != nil {
		return nil, err
	}
	c.pinned = c.epoch
	return c, nil
}

func (c *Client) setConn(conn io.ReadWriter) {
	c.r = bufio.NewReaderSize(conn, 1<<16)
	c.w = bufio.NewWriterSize(conn, 1<<16)
	c.c = nil
	if cl, ok := conn.(io.Closer); ok {
		c.c = cl
	}
}

// Close closes the underlying connection when it supports closing.
func (c *Client) Close() error {
	c.alive = false
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// Epoch returns the daemon epoch from the current connection's
// handshake (0 for NewClient clients, which never handshake
// implicitly).
func (c *Client) Epoch() uint64 { return c.epoch }

// Rebase acknowledges the current epoch: the caller has resynchronized
// against the daemon's recovered state, so subsequent Submits stop
// surfacing ErrEpochChanged for this epoch.
func (c *Client) Rebase() { c.pinned = c.epoch }

// dropConn marks the connection dead after a transport failure.
func (c *Client) dropConn() {
	c.alive = false
	if c.c != nil {
		c.c.Close()
	}
}

// connect dials one connection and handshakes it.
func (c *Client) connect() error {
	conn, err := c.dial()
	if err != nil {
		return err
	}
	c.setConn(conn)
	in, err := c.rawInfo()
	if err != nil {
		if c.c != nil {
			c.c.Close()
		}
		return err
	}
	c.epoch = in.Epoch
	c.alive = true
	return nil
}

// reconnect runs the capped-exponential-backoff dial loop.
func (c *Client) reconnect() error {
	var err error
	for a := 0; a < c.retry.Attempts; a++ {
		if a > 0 {
			c.retry.Sleep(c.retry.backoff(a - 1))
		}
		if err = c.connect(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("service: reconnect failed after %d attempts: %w", c.retry.Attempts, err)
}

// request starts a request with opcode op in the client's reused
// encoding buffer; do releases the buffer once the call has returned.
func (c *Client) request(op byte) *enc {
	c.req.b = c.req.b[:0]
	c.req.op(op)
	return &c.req
}

// call sends one request frame and decodes the response, mapping opErr
// to ErrRemote and any other unexpected opcode to ErrProtocol. The
// returned decoder reads from the client's response storage, so it must
// be consumed before the next call.
func (c *Client) call(req []byte, want byte) (*dec, error) {
	if err := writeFrame(c.w, req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	payload, err := readFrame(c.r, c.frame)
	c.frame = keep(payload)
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty response", ErrMalformed)
	}
	d := &dec{b: payload[1:]}
	switch payload[0] {
	case want:
		return d, nil
	case opErr:
		msg := d.str()
		if err := d.done(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	return nil, fmt.Errorf("%w: opcode %d, want %d", ErrProtocol, payload[0], want)
}

// do is the retry-aware request path. Idempotent requests reconnect and
// resend transparently; non-idempotent ones (Submit) surface
// ErrEpochChanged/ErrInterrupted per the Client contract.
func (c *Client) do(req []byte, want byte, idempotent bool) (*dec, error) {
	// A retry re-sends req, so the request buffer may only be released
	// once the call has returned.
	defer func() { c.req.b = keep(c.req.b) }()
	if c.dial == nil {
		return c.call(req, want)
	}
	for {
		if !c.alive {
			if err := c.reconnect(); err != nil {
				return nil, err
			}
		}
		if !idempotent && c.epoch != c.pinned {
			old := c.pinned
			c.pinned = c.epoch
			return nil, fmt.Errorf("%w: epoch %d -> %d; resynchronize before resubmitting", ErrEpochChanged, old, c.epoch)
		}
		d, err := c.call(req, want)
		if err == nil {
			return d, nil
		}
		if errors.Is(err, ErrRemote) {
			// The connection is healthy; the request itself failed.
			return nil, err
		}
		// Transport or framing failure: the connection is unusable.
		c.dropConn()
		if !idempotent {
			return nil, fmt.Errorf("%w (%v)", ErrInterrupted, err)
		}
	}
}

// rawInfo is the handshake request on the current connection, bypassing
// the retry loop (reconnect calls it while re-establishing).
func (c *Client) rawInfo() (*Info, error) {
	d, err := c.call([]byte{opHello}, opInfo)
	if err != nil {
		return nil, err
	}
	in := d.info()
	if err := d.done(); err != nil {
		return nil, err
	}
	return in, nil
}

func (c *Client) Info() (*Info, error) {
	d, err := c.do([]byte{opHello}, opInfo, true)
	if err != nil {
		return nil, err
	}
	in := d.info()
	if err := d.done(); err != nil {
		return nil, err
	}
	return in, nil
}

func (c *Client) Submit(ti int, specs []fpga.TaskSpec) ([]fleet.Placement, error) {
	e := c.request(opSubmit)
	e.int(ti)
	e.count(len(specs))
	for i := range specs {
		e.taskSpec(&specs[i])
	}
	d, err := c.do(e.b, opPlacements, false)
	if err != nil {
		return nil, err
	}
	n := d.count(1)
	var placed []fleet.Placement
	if n > 0 {
		placed = make([]fleet.Placement, n)
		for i := range placed {
			placed[i].Shard = d.int()
			placed[i].Task = d.task()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return placed, nil
}

func (c *Client) SnapshotShard(i int) (*fpga.Snapshot, error) {
	e := c.request(opSnapshot)
	e.int(i)
	d, err := c.do(e.b, opSnapData, true)
	if err != nil {
		return nil, err
	}
	snap := d.snapshot()
	if err := d.done(); err != nil {
		return nil, err
	}
	return snap, nil
}

func (c *Client) Finish() (*fleet.Stats, error) {
	d, err := c.do([]byte{opFinish}, opStats, true)
	if err != nil {
		return nil, err
	}
	st := d.stats()
	if err := d.done(); err != nil {
		return nil, err
	}
	return st, nil
}

// SplitAddr parses the "network:address" endpoint syntax the front-ends
// use: "unix:/path/to.sock" or "tcp:host:port".
func SplitAddr(s string) (network, addr string, err error) {
	network, addr, ok := strings.Cut(s, ":")
	if !ok || addr == "" || (network != "unix" && network != "tcp") {
		return "", "", fmt.Errorf("service: bad endpoint %q (want unix:/path or tcp:host:port)", s)
	}
	return network, addr, nil
}

var _ Placer = Local{}
var _ Placer = (*Client)(nil)
