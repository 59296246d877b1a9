package fpga

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Snapshot bytes. A snapshot has one byte encoding: the bytes the
// placement service carries in opSnapData, stores shard after shard in a
// checkpoint file, and hashes for its digests. It is
// built from four primitives: a zigzag varint for a signed int, a uvarint
// for a count, the 8 little-endian bytes of a float64's IEEE bits (exact,
// so a canonical snapshot survives bit for bit) and one byte, 0 or 1, for
// a bool; a string is its uvarint length and then its bytes. In order:
//
//	header   = version columns reconfigDelay:f64 policy
//	           admissionPolicy maxBacklog now:f64
//	tasks    = n task*n
//	task     = id name firstCol cols start:f64 duration:f64 release:f64
//	flags    = n done:bool*n  n shed:bool*n  n started:bool*n
//	actual   = n f64*n                 (-1 = no registered lifetime)
//	horizon  = K f64*K                 (one value per column)
//	compact  = m f64*m  s int*s        (fixed ends and slack entries;
//	                                    both empty unless ReclaimCompact)
//	counters = reclaimedColTime:f64 compactPasses tasksMoved
//	           maxWaiting rejected
//	shedIDs  = m int*m
//
// Two encoders write it and agree byte for byte (FuzzSnapshotBytes):
// AppendSnapshot from a Snapshot, and OnlineScheduler.AppendSnapshot
// straight from the task records, which builds no Snapshot. Two decoders
// read it: DecodeSnapshot into a Snapshot, structurally only, and
// DecodeScheduler straight into a fresh scheduler's records, applying
// every validation rule on the way. DecodeScheduler is the one way to
// restore a scheduler: a Snapshot is restored through its bytes, so the
// rules and the rebuild of derived state exist once.

// snapshotVersion is the only snapshot format version.
const snapshotVersion = 1

// minTaskBytes is the shortest task encoding: one byte each for the ID,
// the name's length, the first column and the column count, and 8 for
// each of the three floats.
const minTaskBytes = 4 + 3*8

// snapHeader is the part of a snapshot before its tasks.
type snapHeader struct {
	version   int
	device    Device
	policy    Policy
	admission AdmissionConfig
	now       float64
}

// snapCounters are the cumulative counters after the compaction state.
type snapCounters struct {
	reclaimedColTime                                float64
	compactPasses, tasksMoved, maxWaiting, rejected int
}

// ---- encoding ----

func appendInt(b []byte, v int) []byte   { return binary.AppendVarint(b, int64(v)) }
func appendCount(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInts(b []byte, v []int) []byte {
	b = appendCount(b, len(v))
	for _, x := range v {
		b = appendInt(b, x)
	}
	return b
}

func appendF64s(b []byte, v []float64) []byte {
	b = appendCount(b, len(v))
	for _, x := range v {
		b = appendF64(b, x)
	}
	return b
}

func appendBools(b []byte, v []bool) []byte {
	b = appendCount(b, len(v))
	for _, x := range v {
		b = appendBool(b, x)
	}
	return b
}

func appendHeader(b []byte, h snapHeader) []byte {
	b = appendInt(b, h.version)
	b = appendInt(b, h.device.Columns)
	b = appendF64(b, h.device.ReconfigDelay)
	b = appendInt(b, int(h.policy))
	b = appendInt(b, int(h.admission.Policy))
	b = appendInt(b, h.admission.MaxBacklog)
	return appendF64(b, h.now)
}

func appendTask(b []byte, t *Task) []byte {
	b = appendInt(b, t.ID)
	b = appendCount(b, len(t.Name))
	b = append(b, t.Name...)
	b = appendInt(b, t.FirstCol)
	b = appendInt(b, t.Cols)
	b = appendF64(b, t.Start)
	b = appendF64(b, t.Duration)
	return appendF64(b, t.Release)
}

func appendCounters(b []byte, c snapCounters) []byte {
	b = appendF64(b, c.reclaimedColTime)
	b = appendInt(b, c.compactPasses)
	b = appendInt(b, c.tasksMoved)
	b = appendInt(b, c.maxWaiting)
	return appendInt(b, c.rejected)
}

// AppendSnapshot appends s's snapshot bytes to b and returns the extended
// slice. It encodes whatever s holds, valid or not.
func AppendSnapshot(b []byte, s *Snapshot) []byte {
	b = appendHeader(b, snapHeader{s.Version, Device{s.Columns, s.ReconfigDelay}, s.Policy, s.Admission, s.Now})
	b = appendCount(b, len(s.Tasks))
	for i := range s.Tasks {
		b = appendTask(b, &s.Tasks[i])
	}
	b = appendBools(b, s.Done)
	b = appendBools(b, s.Shed)
	b = appendBools(b, s.Started)
	b = appendF64s(b, s.Actual)
	b = appendF64s(b, s.Horizon)
	b = appendF64s(b, s.FixedEnd)
	b = appendInts(b, s.Slack)
	b = appendCounters(b, snapCounters{s.ReclaimedColTime, s.CompactPasses, s.TasksMoved, s.MaxWaiting, s.Rejected})
	return appendInts(b, s.ShedIDs)
}

// header, counters and slackLive read the scheduler's parts of a
// snapshot for AppendSnapshot and SnapshotLen; Snapshot shares slackLive.
func (o *OnlineScheduler) header() snapHeader {
	return snapHeader{snapshotVersion, *o.device, o.policy, o.admission, o.now}
}

func (o *OnlineScheduler) counters() snapCounters {
	return snapCounters{o.reclaimedColTime, o.compactPasses, o.tasksMoved, o.maxWaiting, o.rejected}
}

// slackLive reports whether slack entry idx still waits. slackQ may hold
// stale entries for tasks promoted or shed since they were parked; the
// engine skips those on drain, so they are non-semantic state that a
// snapshot drops to stay canonical.
func (o *OnlineScheduler) slackLive(idx int) bool {
	return o.tasks.at(idx).flags&(flagStarted|flagShed) == 0
}

// AppendSnapshot appends the scheduler's snapshot bytes to b straight from
// its task records and returns the extended slice: exactly the bytes
// AppendSnapshot(b, o.Snapshot()) appends, with no Snapshot built.
// SnapshotLen is their length, so a caller can size b to hold them. It
// only reads the scheduler.
func (o *OnlineScheduler) AppendSnapshot(b []byte) []byte {
	s := &o.tasks
	b = appendHeader(b, o.header())
	b = appendCount(b, s.n)
	names := s.names
	var t Task
	for ci := range s.chunks {
		base := ci * chunkLen
		recs := s.chunk(ci)
		for j := range recs {
			recs[j].fill(&t)
			t.Name = ""
			if len(names) > 0 && names[0].idx == base+j {
				t.Name, names = names[0].name, names[1:]
			}
			b = appendTask(b, &t)
		}
	}
	for _, flag := range [...]uint8{flagDone, flagShed, flagStarted} {
		b = appendCount(b, s.n)
		for ci := range s.chunks {
			recs := s.chunk(ci)
			for j := range recs {
				b = appendBool(b, recs[j].flags&flag != 0)
			}
		}
	}
	b = appendCount(b, s.n)
	for ci := range s.chunks {
		recs := s.chunk(ci)
		for j := range recs {
			a := recs[j].actual
			if math.IsNaN(a) {
				a = -1
			}
			b = appendF64(b, a)
		}
	}
	b = appendCount(b, o.device.Columns)
	for _, ru := range o.horizon.runs {
		for range ru.end - ru.start {
			b = appendF64(b, ru.val)
		}
	}
	if o.policy == ReclaimCompact {
		b = appendF64s(b, o.fixedEnd)
		b = appendCount(b, o.liveSlack())
		for _, idx := range o.slackQ {
			if o.slackLive(idx) {
				b = appendInt(b, idx)
			}
		}
	} else {
		b = appendCount(b, 0)
		b = appendCount(b, 0)
	}
	b = appendCounters(b, o.counters())
	return appendInts(b, o.shedIDs)
}

// liveSlack counts the slack entries a snapshot keeps.
func (o *OnlineScheduler) liveSlack() int {
	n := 0
	for _, idx := range o.slackQ {
		if o.slackLive(idx) {
			n++
		}
	}
	return n
}

// SnapshotLen returns the length of the bytes AppendSnapshot appends. It
// reads every record but allocates nothing.
func (o *OnlineScheduler) SnapshotLen() int {
	s := &o.tasks
	var scratch [80]byte // fits the longest header or counters encoding
	n := len(appendHeader(scratch[:0], o.header())) + len(appendCounters(scratch[:0], o.counters()))
	// Tasks: an unnamed task's name is its one zero length byte.
	n += countLen(s.n) + s.n*(1+3*8)
	for ci := range s.chunks {
		recs := s.chunk(ci)
		for j := range recs {
			r := &recs[j]
			n += intLen(r.id) + intLen(int(r.firstCol)) + intLen(int(r.cols))
		}
	}
	for _, nm := range s.names {
		n += countLen(len(nm.name)) - 1 + len(nm.name)
	}
	// Three flag slices and the lifetimes.
	n += 4*countLen(s.n) + s.n*(3+8)
	n += countLen(o.device.Columns) + 8*o.device.Columns
	if o.policy == ReclaimCompact {
		n += countLen(len(o.fixedEnd)) + 8*len(o.fixedEnd) + countLen(o.liveSlack())
		for _, idx := range o.slackQ {
			if o.slackLive(idx) {
				n += intLen(idx)
			}
		}
	} else {
		n += 2
	}
	n += countLen(len(o.shedIDs))
	for _, id := range o.shedIDs {
		n += intLen(id)
	}
	return n
}

// countLen and intLen are the encoded lengths of a count and an int.
func countLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

func intLen(v int) int {
	u := uint64(v) << 1 // zigzag, as binary.AppendVarint
	if v < 0 {
		u = ^u
	}
	return (bits.Len64(u|1) + 6) / 7
}

// ---- decoding ----

// snapDec reads the primitives with a sticky error: after the first
// failure every read returns the zero value, so the decoders read
// straight through and check err once.
type snapDec struct {
	b   []byte
	err error
}

func (d *snapDec) fail() {
	if d.err == nil {
		d.err = ErrMalformedSnapshot
	}
}

func (d *snapDec) uint() uint64 {
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

func (d *snapDec) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *snapDec) f64() float64 {
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

func (d *snapDec) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 || d.b[0] > 1 {
		d.fail()
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *snapDec) str() string {
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

// count reads a slice length and rejects one that cannot fit in the
// bytes left at minBytes per element, so a corrupted count cannot set off
// a huge allocation.
func (d *snapDec) count(minBytes int) int {
	n := d.uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/minBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *snapDec) ints() []int {
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

func (d *snapDec) f64s() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *snapDec) bools() []bool {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.bool()
	}
	return out
}

func (d *snapDec) header() (h snapHeader) {
	h.version = d.int()
	h.device.Columns = d.int()
	h.device.ReconfigDelay = d.f64()
	h.policy = Policy(d.int())
	h.admission.Policy = AdmissionPolicy(d.int())
	h.admission.MaxBacklog = d.int()
	h.now = d.f64()
	return h
}

func (d *snapDec) task() (t Task) {
	t.ID = d.int()
	t.Name = d.str()
	t.FirstCol = d.int()
	t.Cols = d.int()
	t.Start = d.f64()
	t.Duration = d.f64()
	t.Release = d.f64()
	return t
}

func (d *snapDec) counters() (c snapCounters) {
	c.reclaimedColTime = d.f64()
	c.compactPasses = d.int()
	c.tasksMoved = d.int()
	c.maxWaiting = d.int()
	c.rejected = d.int()
	return c
}

// DecodeSnapshot decodes one snapshot encoding from the front of b and
// returns it with the bytes after it. It checks the structure only: a
// decoded snapshot may still break a rule DecodeScheduler checks. Bytes
// that do not decode give an error matching ErrMalformedSnapshot.
func DecodeSnapshot(b []byte) (*Snapshot, []byte, error) {
	d := &snapDec{b: b}
	h := d.header()
	s := &Snapshot{Version: h.version, Columns: h.device.Columns, ReconfigDelay: h.device.ReconfigDelay,
		Policy: h.policy, Admission: h.admission, Now: h.now}
	if n := d.count(minTaskBytes); n > 0 {
		s.Tasks = make([]Task, n)
		for i := range s.Tasks {
			s.Tasks[i] = d.task()
		}
	}
	s.Done = d.bools()
	s.Shed = d.bools()
	s.Started = d.bools()
	s.Actual = d.f64s()
	if s.Actual == nil {
		s.Actual = []float64{} // Snapshot() never leaves Actual nil
	}
	s.Horizon = d.f64s()
	s.FixedEnd = d.f64s()
	s.Slack = d.ints()
	c := d.counters()
	s.ReclaimedColTime, s.CompactPasses, s.TasksMoved, s.MaxWaiting, s.Rejected =
		c.reclaimedColTime, c.compactPasses, c.tasksMoved, c.maxWaiting, c.rejected
	s.ShedIDs = d.ints()
	if d.err != nil {
		return nil, nil, d.err
	}
	return s, d.b, nil
}

// DecodeScheduler restores a scheduler straight from the snapshot bytes
// at the front of b, filling a fresh scheduler's records with no Snapshot
// built, and returns it with the bytes after them. Bytes that do not
// decode give an error matching ErrMalformedSnapshot; a snapshot that
// decodes but breaks an invariant the engine maintains gives one matching
// ErrBadSnapshot. Malformed bytes take precedence: decoding reads on past
// the first broken rule. The restored scheduler continues byte-identically
// to the one that was snapshotted.
func DecodeScheduler(b []byte) (*OnlineScheduler, []byte, error) {
	d := &snapDec{b: b}
	// bad is the first broken rule. Records are filled only while no rule
	// is broken and every byte so far decoded (filling), so o is non-nil
	// and holds every task read before the current one.
	var bad error
	reject := func(format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
		}
	}
	filling := func() bool { return bad == nil && d.err == nil }
	h := d.header()
	var o *OnlineScheduler
	if d.err == nil {
		if err := h.validate(); err != nil {
			reject("%v", err)
		} else if o, err = NewOnlineSchedulerAdmission(&Device{h.device.Columns, h.device.ReconfigDelay}, h.policy, h.admission); err != nil {
			reject("%v", err)
		}
	}
	k := h.device.Columns

	n := d.count(minTaskBytes)
	if filling() {
		o.tasks.reserve(n)
	}
	for range n {
		t := d.task()
		if !filling() {
			continue
		}
		if t.Cols < 1 || t.Cols > k || t.FirstCol < 0 || t.FirstCol > k-t.Cols {
			reject("task %d columns [%d, %d) on %d-column device", t.ID, t.FirstCol, t.FirstCol+t.Cols, k)
			continue
		}
		if !finite(t.Start) || !finite(t.Duration) || !finite(t.Release) || t.Duration <= 0 {
			reject("task %d geometry start=%g duration=%g release=%g", t.ID, t.Start, t.Duration, t.Release)
			continue
		}
		slot, dup := o.tasks.probe(t.ID)
		if dup >= 0 {
			reject("duplicate task ID %d", t.ID)
			continue
		}
		o.tasks.add(slot, taskRec{id: t.ID, firstCol: int32(t.FirstCol), cols: int32(t.Cols),
			start: t.Start, duration: t.Duration, release: t.Release, actual: math.NaN(), node: -1}, t.Name)
	}

	for _, f := range [...]struct {
		flag uint8
		name string
	}{{flagDone, "done"}, {flagShed, "shed"}, {flagStarted, "started"}} {
		m := d.count(1)
		if m != n {
			reject("%d %s flags for %d tasks", m, f.name, n)
		}
		for i := range m {
			if d.bool() && filling() {
				o.tasks.at(i).flags |= f.flag
			}
		}
	}
	m := d.count(8)
	if m != n {
		reject("%d actual lifetimes for %d tasks", m, n)
	}
	for i := range m {
		a := d.f64()
		if !filling() || a == -1 {
			continue
		}
		r := o.tasks.at(i)
		if !finite(a) || a <= 0 {
			reject("task %d actual lifetime %g", r.id, a)
		}
		r.actual = a
	}
	for i := range n {
		if !filling() {
			break
		}
		switch r := o.tasks.at(i); {
		case r.flags&flagDone != 0 && r.flags&flagStarted == 0:
			reject("task %d done but not started", r.id)
		case r.flags&flagShed != 0 && r.flags&(flagStarted|flagDone) != 0:
			reject("task %d both shed and started", r.id)
		}
	}

	m = d.count(8)
	if m != k {
		reject("%d horizon values for %d columns", m, k)
	}
	var horizon []float64
	if filling() {
		horizon = make([]float64, 0, m)
	}
	for c := range m {
		v := d.f64()
		if !finite(v) || v < 0 {
			reject("horizon[%d] = %g", c, v)
		}
		if filling() {
			horizon = append(horizon, v)
		}
	}

	compact := h.policy == ReclaimCompact
	m = d.count(8)
	if compact && m != k {
		reject("%d fixed ends for %d columns", m, k)
	} else if !compact && m != 0 {
		reject("compaction state under policy %v", h.policy)
	}
	for c := range m {
		v := d.f64()
		if !finite(v) || v < 0 {
			reject("fixedEnd[%d] = %g", c, v)
		}
		if filling() {
			o.fixedEnd[c] = v
		}
	}
	m = d.count(1)
	if !compact && m != 0 {
		reject("compaction state under policy %v", h.policy)
	}
	var slack []int
	if filling() && m > 0 {
		slack = make([]int, 0, m)
	}
	for range m {
		idx := d.int()
		if !filling() {
			continue
		}
		if idx < 0 || idx >= n {
			reject("slack entry %d out of range", idx)
		} else if !o.slackLive(idx) {
			reject("slack entry %d is not waiting", idx)
		}
		slack = append(slack, idx)
	}

	c := d.counters()
	shedIDs := d.ints()
	if d.err != nil {
		return nil, nil, d.err
	}
	if bad != nil {
		return nil, nil, bad
	}
	o.now = h.now
	o.horizon.fill(horizon)
	o.slackQ = slack
	o.reclaimedColTime, o.compactPasses, o.tasksMoved, o.maxWaiting, o.rejected =
		c.reclaimedColTime, c.compactPasses, c.tasksMoved, c.maxWaiting, c.rejected
	o.shedIDs = shedIDs
	o.rebuild()
	return o, d.b, nil
}

// validate checks the header's rules: the version, the device, both
// policies and the clock.
func (h *snapHeader) validate() error {
	if h.version != snapshotVersion {
		return fmt.Errorf("unsupported version %d", h.version)
	}
	if h.device.Columns < 1 || h.device.Columns > maxColumns {
		return fmt.Errorf("%d columns", h.device.Columns)
	}
	if !finite(h.device.ReconfigDelay) || h.device.ReconfigDelay < 0 {
		return fmt.Errorf("reconfig delay %g", h.device.ReconfigDelay)
	}
	if h.policy != NoReclaim && h.policy != Reclaim && h.policy != ReclaimCompact {
		return fmt.Errorf("unknown policy %d", int(h.policy))
	}
	if err := h.admission.validate(); err != nil {
		return err
	}
	if !finite(h.now) || h.now < 0 {
		return fmt.Errorf("clock %g", h.now)
	}
	return nil
}
