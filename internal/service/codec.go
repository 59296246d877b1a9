package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
)

// Wire format (see DESIGN.md for the taxonomy):
//
//	frame   = uvarint(len(payload)) payload
//	payload = op:byte body
//
// The body is a flat, hand-written encoding — no reflection, no field
// names — over four primitives: uvarint for counts and non-negative
// ints, zigzag varint for signed ints, 8-byte little-endian IEEE bits
// for float64 (exact, so canonical snapshots survive the wire
// bit-for-bit), and uvarint-length-prefixed bytes for strings. A shard
// snapshot's bytes are internal/fpga's (fpga.AppendSnapshot), built from
// the same primitives plus a 0/1 byte per bool. Encoding is
// deterministic: equal values produce equal bytes, which is what lets
// the harness hash transported snapshots and compare them across the
// in-process and daemon paths.

// Request and response opcodes. Every request gets exactly one response:
// the op-specific success payload or opErr carrying a message. Request
// numbers 3, 4, 6, 8, 9 and 10 (drain, load, restore, restored, epoch and
// checkpoint) and response numbers 64, 68 and 71-73 are retired, not
// reused: a retired request gets the unknown-opcode opErr.
const (
	opHello    byte = 1 // -> opInfo
	opSubmit   byte = 2 // tenant + specs -> opPlacements
	opSnapshot byte = 5 // shard -> opSnapData
	opFinish   byte = 7 // -> opStats

	opErr        byte = 65
	opInfo       byte = 66
	opPlacements byte = 67
	opSnapData   byte = 69
	opStats      byte = 70
)

// maxFrame bounds a frame payload (1 GiB): large enough for a snapshot
// of a multi-million-task shard, small enough to fail fast on a
// corrupted length prefix. The length prefix is untrusted, so readFrame
// never allocates for it up front: storage grows with the bytes that
// actually arrive.
const maxFrame = 1 << 30

// frameChunk is the most storage readFrame adds ahead of the bytes
// received so far: a frame's first allocation is at most this, and each
// later one at most doubles what has already arrived.
const frameChunk = 64 << 10

// maxKeptBuf caps, in bytes, each buffer a connection (server or client
// side) keeps between frames. A frame or encoding that outgrew it, such
// as a large snapshot, is served from buffers that are dropped
// afterwards, so one large message does not pin its memory for the
// connection's life. A 1,024-task submit frame, its decoded specs and its
// response are each about 30-60 KB, well inside it.
const maxKeptBuf = 256 << 10

// keep returns b emptied for reuse, or nil when it outgrew maxKeptBuf.
func keep(b []byte) []byte {
	if cap(b) > maxKeptBuf {
		return nil
	}
	return b[:0]
}

var (
	// ErrMalformed marks a frame or body that does not decode.
	ErrMalformed = errors.New("service: malformed message")
	// ErrProtocol marks an unexpected opcode for the conversation state.
	ErrProtocol = errors.New("service: protocol violation")
)

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame from a ByteReader that is
// also an io.Reader (e.g. *bufio.Reader) into buf's storage and returns
// the payload, which aliases buf unless it had to grow. Growth is bounded
// by what arrives (see frameChunk), so a header claiming maxFrame
// followed by a closed connection costs one chunk, not 1 GiB.
func readFrame(r interface {
	io.Reader
	io.ByteReader
}, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return buf[:0], err
	}
	if n > maxFrame {
		return buf[:0], fmt.Errorf("%w: %d-byte frame exceeds limit", ErrMalformed, n)
	}
	size := int(n)
	buf = buf[:0]
	for len(buf) < size {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(size-len(buf), max(len(buf), frameChunk)))
		}
		end := min(size, cap(buf))
		k, err := io.ReadFull(r, buf[len(buf):end])
		buf = buf[:len(buf)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// enc appends primitives to a buffer.
type enc struct{ b []byte }

func (e *enc) op(v byte)     { e.b = append(e.b, v) }
func (e *enc) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) int(v int)     { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *enc) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) str(s string)  { e.uint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) count(n int)   { e.uint(uint64(n)) }

// dec consumes primitives from a buffer with a sticky error: after the
// first failure every getter returns the zero value, so decoders can be
// written straight-line and check d.err once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

func (d *dec) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) int() int { return int(d.i64()) }

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	n := d.uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a slice length and rejects counts that cannot fit in the
// remaining bytes at minBytes per element — the guard that keeps a
// corrupted count from triggering a huge allocation.
func (d *dec) count(minBytes int) int {
	n := d.uint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(len(d.b)/minBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

// done reports a fully and exactly consumed body.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b))
	}
	return nil
}

// ---- composite encodings ----

// minSpecBytes is the shortest encoding of a TaskSpec: one byte each for
// the ID, the name's length and the column count, and 8 per float.
const minSpecBytes = 3 + 3*8

func (e *enc) taskSpec(sp *fpga.TaskSpec) {
	e.int(sp.ID)
	e.str(sp.Name)
	e.int(sp.Cols)
	e.f64(sp.Duration)
	e.f64(sp.Actual)
	e.f64(sp.Release)
}

func (d *dec) taskSpec() (sp fpga.TaskSpec) {
	sp.ID = d.int()
	sp.Name = d.str()
	sp.Cols = d.int()
	sp.Duration = d.f64()
	sp.Actual = d.f64()
	sp.Release = d.f64()
	return sp
}

func (e *enc) task(t *fpga.Task) {
	e.int(t.ID)
	e.str(t.Name)
	e.int(t.FirstCol)
	e.int(t.Cols)
	e.f64(t.Start)
	e.f64(t.Duration)
	e.f64(t.Release)
}

func (d *dec) task() (t fpga.Task) {
	t.ID = d.int()
	t.Name = d.str()
	t.FirstCol = d.int()
	t.Cols = d.int()
	t.Start = d.f64()
	t.Duration = d.f64()
	t.Release = d.f64()
	return t
}

func (e *enc) admission(a fpga.AdmissionConfig) {
	e.int(int(a.Policy))
	e.int(a.MaxBacklog)
}

func (d *dec) admission() (a fpga.AdmissionConfig) {
	a.Policy = fpga.AdmissionPolicy(d.int())
	a.MaxBacklog = d.int()
	return a
}

func (e *enc) ints(v []int) {
	e.count(len(v))
	for _, x := range v {
		e.int(x)
	}
}

func (d *dec) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	return out
}

// snapshot appends a shard snapshot's bytes, which internal/fpga defines
// (fpga.AppendSnapshot).
func (e *enc) snapshot(s *fpga.Snapshot) { e.b = fpga.AppendSnapshot(e.b, s) }

// snapshot decodes a shard snapshot (fpga.DecodeSnapshot); bytes that do
// not decode fail the decoder like any other malformed body.
func (d *dec) snapshot() *fpga.Snapshot {
	if d.err != nil {
		return nil
	}
	s, rest, err := fpga.DecodeSnapshot(d.b)
	if err != nil {
		d.fail()
		return nil
	}
	d.b = rest
	return s
}

// EncodeSnapshot returns the deterministic wire encoding of a canonical
// shard snapshot — the bytes opSnapData carries, exported so the
// harness can hash shard state identically on the in-process and daemon
// paths. A live scheduler's bytes come without a Snapshot from
// fpga.OnlineScheduler.AppendSnapshot.
func EncodeSnapshot(s *fpga.Snapshot) []byte { return fpga.AppendSnapshot(nil, s) }

func (e *enc) churnStats(c *fpga.ChurnStats) {
	e.f64(c.Makespan)
	e.f64(c.Utilization)
	e.f64(c.MeanWait)
	e.f64(c.ReclaimedColumnTime)
	e.int(c.CompactPasses)
	e.int(c.TasksMoved)
	e.int(c.Admitted)
	e.int(c.Rejected)
	e.int(c.Shed)
	e.int(c.MaxBacklog)
}

func (d *dec) churnStats() (c fpga.ChurnStats) {
	c.Makespan = d.f64()
	c.Utilization = d.f64()
	c.MeanWait = d.f64()
	c.ReclaimedColumnTime = d.f64()
	c.CompactPasses = d.int()
	c.TasksMoved = d.int()
	c.Admitted = d.int()
	c.Rejected = d.int()
	c.Shed = d.int()
	c.MaxBacklog = d.int()
	return c
}

func (e *enc) stats(s *fleet.Stats) {
	e.int(s.Shards)
	e.int(s.Tasks)
	e.int(s.Admitted)
	e.int(s.Rejected)
	e.int(s.Shed)
	e.f64(s.Makespan)
	e.f64(s.Utilization)
	e.f64(s.MeanWait)
	e.int(s.MaxBacklog)
	e.count(len(s.PerShard))
	for i := range s.PerShard {
		e.churnStats(&s.PerShard[i])
	}
}

func (d *dec) stats() *fleet.Stats {
	s := &fleet.Stats{}
	s.Shards = d.int()
	s.Tasks = d.int()
	s.Admitted = d.int()
	s.Rejected = d.int()
	s.Shed = d.int()
	s.Makespan = d.f64()
	s.Utilization = d.f64()
	s.MeanWait = d.f64()
	s.MaxBacklog = d.int()
	n := d.count(1)
	if n > 0 {
		s.PerShard = make([]fpga.ChurnStats, n)
		for i := range s.PerShard {
			s.PerShard[i] = d.churnStats()
		}
	}
	return s
}

func (e *enc) meter(m *fleet.Meter) {
	e.int(m.Submitted)
	e.int(m.Placed)
	e.int(m.Refused)
	e.f64(m.ColTime)
}

func (d *dec) meter() (m fleet.Meter) {
	m.Submitted = d.int()
	m.Placed = d.int()
	m.Refused = d.int()
	m.ColTime = d.f64()
	return m
}

func (e *enc) laneState(ls *fleet.LaneState) {
	e.str(ls.Name)
	e.int(ls.RR)
	e.uint(ls.RNGDraws)
	e.meter(&ls.Meter)
}

func (d *dec) laneState() (ls fleet.LaneState) {
	ls.Name = d.str()
	ls.RR = d.int()
	ls.RNGDraws = d.uint()
	ls.Meter = d.meter()
	return ls
}

// TenantInfo describes one tenant endpoint of a placement service.
type TenantInfo struct {
	Name         string
	First, Count int // contiguous shard range [First, First+Count)
	Route        fleet.Route
	// MaxBacklog and MaxTaskCols mirror the tenant's quota fields
	// (0 = unlimited).
	MaxBacklog, MaxTaskCols int
}

// Info is the service handshake: the fleet shape a client needs to
// verify it is talking to the daemon it expects (everything that affects
// results; GOMAXPROCS does not, by the fleet's determinism contract),
// the tenant endpoints resolved by name, plus two run-scoped fields —
// the daemon's Epoch (incremented on every restart; 0 for an in-process
// Local) and the per-tenant metering counters.
// Compare Shapes, not Infos, to decide whether two services are
// interchangeable.
type Info struct {
	Shards        int
	Cols          []int // resolved per-shard column counts
	ReconfigDelay float64
	Policy        fpga.Policy
	Admission     fpga.AdmissionConfig
	Route         fleet.Route
	Seed          int64
	Epoch         uint64
	Tenants       []TenantInfo
	Meters        []fleet.Meter // per-tenant cumulative counters, tenant order
}

// Shape returns the restart-invariant part of the Info: everything that
// identifies the fleet's configured shape, with the run-scoped Epoch and
// Meters cleared and the slices copied. Clients compare Shapes across
// reconnects (the daemon may have restarted into a new epoch with
// different meters but must present the same shape), and the checkpoint
// manifest stores a Shape for -recover validation.
func (in *Info) Shape() *Info {
	out := *in
	out.Epoch = 0
	out.Meters = nil
	out.Cols = append([]int(nil), in.Cols...)
	out.Tenants = append([]TenantInfo(nil), in.Tenants...)
	return &out
}

func (e *enc) info(in *Info) {
	e.int(in.Shards)
	e.ints(in.Cols)
	e.f64(in.ReconfigDelay)
	e.int(int(in.Policy))
	e.admission(in.Admission)
	e.int(int(in.Route))
	e.i64(in.Seed)
	e.uint(in.Epoch)
	e.count(len(in.Tenants))
	for i := range in.Tenants {
		t := &in.Tenants[i]
		e.str(t.Name)
		e.int(t.First)
		e.int(t.Count)
		e.int(int(t.Route))
		e.int(t.MaxBacklog)
		e.int(t.MaxTaskCols)
	}
	e.count(len(in.Meters))
	for i := range in.Meters {
		e.meter(&in.Meters[i])
	}
}

func (d *dec) info() *Info {
	in := &Info{}
	in.Shards = d.int()
	in.Cols = d.ints()
	in.ReconfigDelay = d.f64()
	in.Policy = fpga.Policy(d.int())
	in.Admission = d.admission()
	in.Route = fleet.Route(d.int())
	in.Seed = d.i64()
	in.Epoch = d.uint()
	n := d.count(6)
	if n > 0 {
		in.Tenants = make([]TenantInfo, n)
		for i := range in.Tenants {
			t := &in.Tenants[i]
			t.Name = d.str()
			t.First = d.int()
			t.Count = d.int()
			t.Route = fleet.Route(d.int())
			t.MaxBacklog = d.int()
			t.MaxTaskCols = d.int()
		}
	}
	n = d.count(11)
	if n > 0 {
		in.Meters = make([]fleet.Meter, n)
		for i := range in.Meters {
			in.Meters[i] = d.meter()
		}
	}
	return in
}
