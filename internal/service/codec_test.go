package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
)

// DecodeSnapshot decodes EncodeSnapshot's output, the reader the tests
// check the snapshot encoding with, through the decoder the wire ops use.
// The snapshot is only structurally decoded here; semantic validation
// happens in fpga.RestoreScheduler.
func DecodeSnapshot(b []byte) (*fpga.Snapshot, error) {
	d := &dec{b: b}
	s := d.snapshot()
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 1<<16)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	var storage []byte // reused across frames, as a connection does
	for _, want := range payloads {
		got, err := readFrame(r, storage)
		storage = got
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame round trip: %d bytes, want %d", len(got), len(want))
		}
	}
	// A length prefix beyond maxFrame must fail before allocating.
	var e enc
	e.uint(maxFrame + 1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(e.b)), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestReadFrameBoundedAllocation: the length prefix is untrusted, so a
// header claiming a maxFrame payload that never arrives must fail with
// io.ErrUnexpectedEOF after allocating well under 1 MiB, and a payload
// that does arrive in full is read whole however it is chunked. Server
// and client keep no buffer past maxKeptBuf bytes between frames.
func TestReadFrameBoundedAllocation(t *testing.T) {
	var hdr enc
	hdr.uint(maxFrame)
	var ms0, ms1 runtime.MemStats
	const runs = 8
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(hdr.b)), nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated maxFrame header: err = %v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&ms1)
	if per := (ms1.TotalAlloc - ms0.TotalAlloc) / runs; per >= 1<<20 {
		t.Fatalf("a 5-byte header claiming %d bytes allocated %d bytes", maxFrame, per)
	}
	// A payload several chunks long, delivered one byte per Read, arrives
	// intact; storage that outgrew maxKeptBuf is not kept.
	big := bytes.Repeat([]byte{0x5a}, 3*maxKeptBuf/2)
	var frame bytes.Buffer
	if err := writeFrame(&frame, big); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(iotest.OneByteReader(&frame)), make([]byte, 0, 10))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("chunked read: %d bytes, err %v", len(got), err)
	}
	if keep(got) != nil {
		t.Fatal("a buffer past maxKeptBuf was kept")
	}
	if b := keep(make([]byte, 7, 64)); b == nil || len(b) != 0 || cap(b) != 64 {
		t.Fatal("a small buffer was not kept for reuse")
	}
	// A served connection drops a spec buffer past maxKeptBuf bytes even
	// when the payload it was decoded from is small enough to keep.
	var cb connBuf
	srv := NewServer(stubPlacer{})
	for _, n := range []int{1024, maxKeptSpecs + 1} {
		payload := submitPayload(0, make([]fpga.TaskSpec, n))
		if resp := srv.handle(&cb, payload); resp[0] != opPlacements {
			t.Fatalf("%d-spec submit: opcode %d", n, resp[0])
		}
		cb.reset(payload)
		if kept := cap(cb.specs) > 0; kept != (n <= maxKeptSpecs) || cap(cb.frame) == 0 {
			t.Fatalf("%d-spec submit: kept %d specs and %d payload bytes", n, cap(cb.specs), cap(cb.frame))
		}
	}
	// A Client's request encoding past maxKeptBuf is dropped once its call
	// has returned; a small one is kept for the next request.
	cc, sc := net.Pipe()
	defer cc.Close()
	go NewServer(stubPlacer{}).Serve(sc)
	c := NewClient(cc)
	if err := c.RestoreShard(0, &fpga.Snapshot{Horizon: make([]float64, maxKeptBuf/8)}); err != nil {
		t.Fatal(err)
	}
	if c.req.b != nil {
		t.Fatalf("a %d-byte restore request was kept after its call", cap(c.req.b))
	}
	if err := c.RestoreShard(0, &fpga.Snapshot{}); err != nil || cap(c.req.b) == 0 {
		t.Fatalf("a small restore request was not kept for reuse (err %v)", err)
	}
}

// TestPrimitiveRoundTrip covers the wire primitives; the bool byte, which
// only snapshots use, is covered with the snapshot primitives in
// internal/fpga (TestSnapshotPrimitives).
func TestPrimitiveRoundTrip(t *testing.T) {
	var e enc
	e.uint(0)
	e.uint(1 << 40)
	e.int(-7)
	e.i64(math.MinInt64)
	e.f64(0.1)
	e.f64(math.Inf(-1))
	e.f64(math.Copysign(0, -1)) // -0.0 must survive: floats travel as bits
	e.str("")
	e.str("héllo\x00world")
	d := &dec{b: e.b}
	if d.uint() != 0 || d.uint() != 1<<40 || d.int() != -7 || d.i64() != math.MinInt64 {
		t.Fatal("int round trip")
	}
	if d.f64() != 0.1 || !math.IsInf(d.f64(), -1) {
		t.Fatal("float round trip")
	}
	if z := d.f64(); z != 0 || !math.Signbit(z) {
		t.Fatal("-0.0 did not survive")
	}
	if d.str() != "" || d.str() != "héllo\x00world" {
		t.Fatal("string round trip")
	}
	if err := d.done(); err != nil {
		t.Fatal(err)
	}
	// Truncated varint / float / string are sticky errors.
	for _, b := range [][]byte{{0x80}, {1, 2, 3}, {5, 'h', 'i'}} {
		d = &dec{b: b}
		d.uint()
		d.f64()
		d.str()
		if d.err == nil {
			t.Fatalf("truncated input %v accepted", b)
		}
	}
	// Trailing bytes are malformed.
	d = &dec{b: []byte{0, 0}}
	d.uint()
	if err := d.done(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestCountGuard(t *testing.T) {
	// A huge element count with a tiny body must be rejected by the
	// allocation guard, not attempted.
	var e enc
	e.uint(1 << 50)
	d := &dec{b: e.b}
	if n := d.count(8); n != 0 || d.err == nil {
		t.Fatalf("count guard: n=%d err=%v", n, d.err)
	}
	// A submit whose body cannot hold the specs it claims is malformed,
	// and the connection's reused spec buffer is not grown for it.
	body := binary.AppendUvarint([]byte{opSubmit, 0}, 1000)
	body = append(body, make([]byte, 1000)...)
	var cb connBuf
	if resp := NewServer(stubPlacer{}).handle(&cb, body); resp[0] != opErr || cap(cb.specs) != 0 {
		t.Fatalf("short submit body: opcode %d, spec buffer of %d", resp[0], cap(cb.specs))
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	// Build a real scheduler state rather than a synthetic snapshot so the
	// encoding is exercised against the canonical form.
	o, err := fpga.NewOnlineSchedulerAdmission(&fpga.Device{Columns: 8, ReconfigDelay: 0.25},
		fpga.ReclaimCompact, fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		dur := 1 + float64(i%3)
		spec := fpga.TaskSpec{ID: i, Name: "t", Cols: 1 + i%5, Duration: dur,
			Actual: dur * (0.5 + 0.1*float64(i%4)), Release: float64(i) * 0.3}
		if _, err := o.SubmitBatch(nil, []fpga.TaskSpec{spec}); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Snapshot()
	b := EncodeSnapshot(snap)
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("snapshot codec round trip diverges")
	}
	// Deterministic: equal values, equal bytes.
	if !bytes.Equal(EncodeSnapshot(got), b) {
		t.Fatal("snapshot encoding is not deterministic")
	}
	// The decoded snapshot must still restore.
	if _, err := fpga.RestoreScheduler(got); err != nil {
		t.Fatal(err)
	}
	// Trailing garbage after a valid snapshot is malformed.
	if _, err := DecodeSnapshot(append(append([]byte{}, b...), 0)); err == nil {
		t.Fatal("trailing byte after snapshot accepted")
	}
	if _, err := DecodeSnapshot(b[:len(b)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestStatsAndInfoCodecRoundTrip(t *testing.T) {
	st := &fleet.Stats{
		Shards: 2, Tasks: 10, Admitted: 8, Rejected: 1, Shed: 1,
		Makespan: 12.5, Utilization: 0.625, MeanWait: 0.25, MaxBacklog: 3,
		PerShard: []fpga.ChurnStats{
			{Makespan: 12.5, Utilization: 0.5, MeanWait: 0.25, ReclaimedColumnTime: 1.5,
				CompactPasses: 2, TasksMoved: 3, Admitted: 4, Rejected: 1, Shed: 0, MaxBacklog: 3},
			{Makespan: 11, Utilization: 0.75, Admitted: 4, Shed: 1},
		},
	}
	var e enc
	e.stats(st)
	d := &dec{b: e.b}
	if got := d.stats(); d.done() != nil || !reflect.DeepEqual(got, st) {
		t.Fatal("stats round trip diverges")
	}

	in := &Info{
		Shards: 3, Cols: []int{4, 4, 8}, ReconfigDelay: 0.25,
		Policy:    fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 16},
		Route:     fleet.RouteLeast, Seed: -9,
		Tenants: []TenantInfo{
			{Name: "alpha", First: 0, Count: 2, Route: fleet.RouteRR},
			{Name: "beta", First: 2, Count: 1, Route: fleet.RouteP2C},
		},
	}
	e = enc{}
	e.info(in)
	d = &dec{b: e.b}
	if got := d.info(); d.done() != nil || !reflect.DeepEqual(got, in) {
		t.Fatal("info round trip diverges")
	}

	l := fpga.LoadStats{Now: 3, Horizon: 9, Window: 6, CommittedColTime: 24,
		Load: 0.5, Waiting: 1, Running: 2, Done: 3, Shed: 4, Rejected: 5, MaxWaiting: 6}
	e = enc{}
	e.loadStats(&l)
	d = &dec{b: e.b}
	if got := d.loadStats(); d.done() != nil || got != l {
		t.Fatal("load stats round trip diverges")
	}
}

// FuzzServiceCodec hammers every decoder reachable from the wire with
// arbitrary bytes. Two invariants: decoding never panics (the allocation
// guard and sticky errors hold), and anything that decodes cleanly
// re-encodes and re-decodes to an equal value (the codec is canonical on
// its image). Values holding floats are compared by their encodings: a
// NaN round-trips bit-exactly but is != itself.
func FuzzServiceCodec(f *testing.F) {
	o := fpga.NewOnlineSchedulerPolicy(fpga.NewDevice(4), fpga.Reclaim)
	for i := 0; i < 6; i++ {
		if _, err := o.Submit(i, "f", 1+i%3, 1, 0); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(byte(0), EncodeSnapshot(o.Snapshot()))
	var e enc
	e.stats(&fleet.Stats{Shards: 1, PerShard: []fpga.ChurnStats{{Admitted: 3}}})
	f.Add(byte(1), e.b)
	e = enc{}
	e.info(&Info{Shards: 2, Cols: []int{4, 4}, Tenants: []TenantInfo{{Name: "x", Count: 2}}})
	f.Add(byte(2), e.b)
	e = enc{}
	e.taskSpec(&fpga.TaskSpec{ID: 3, Name: "n", Cols: 2, Duration: 1.5, Release: 0.5})
	f.Add(byte(3), e.b)
	f.Add(byte(4), []byte{opSubmit, 2, 1})
	f.Add(byte(4), submitPayload(0, []fpga.TaskSpec{{ID: 1, Cols: 2, Duration: 1}, {ID: 2, Name: "x", Cols: 1, Duration: 2}}))
	f.Add(byte(4), []byte{opHello})
	f.Add(byte(4), []byte{opEpoch})
	// Checkpoint payloads (case 5 appends the sha256 trailer): an empty
	// fleet's, and the one TestCheckpointFileRoundTrip pins.
	fl, err := fleet.New(ckptConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{0, 1500} {
		for ti := 0; ti < fl.Tenants(); ti++ {
			churnFleet(f, fl, ti, 0, cut)
		}
		ck, err := CaptureCheckpoint(fl, 3, 7)
		if err != nil {
			f.Fatal(err)
		}
		file := EncodeCheckpoint(ck)
		f.Add(byte(5), file[:len(file)-sha256.Size])
	}

	// Every dispatched input is served from one connection's buffers, as
	// a long-lived connection would; each response must still equal the
	// one fresh buffers give.
	srv := NewServer(stubPlacer{})
	var conn connBuf
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		switch which % 6 {
		case 0:
			s, err := DecodeSnapshot(data)
			if err != nil {
				return
			}
			b := EncodeSnapshot(s)
			s2, err := DecodeSnapshot(b)
			if err != nil || !reflect.DeepEqual(s2, s) {
				t.Fatalf("snapshot re-decode diverges: %v", err)
			}
		case 1:
			d := &dec{b: data}
			st := d.stats()
			if d.done() != nil {
				return
			}
			var e enc
			e.stats(st)
			d2 := &dec{b: e.b}
			st2 := d2.stats()
			var e2 enc
			e2.stats(st2)
			if d2.done() != nil || !bytes.Equal(e2.b, e.b) {
				t.Fatal("stats re-decode diverges")
			}
		case 2:
			d := &dec{b: data}
			in := d.info()
			if d.done() != nil {
				return
			}
			var e enc
			e.info(in)
			d2 := &dec{b: e.b}
			in2 := d2.info()
			var e2 enc
			e2.info(in2)
			if d2.done() != nil || !bytes.Equal(e2.b, e.b) {
				t.Fatal("info re-decode diverges")
			}
		case 3:
			d := &dec{b: data}
			sp := d.taskSpec()
			if d.done() != nil {
				return
			}
			var e enc
			e.taskSpec(&sp)
			d2 := &dec{b: e.b}
			sp2 := d2.taskSpec()
			var e2 enc
			e2.taskSpec(&sp2)
			if d2.done() != nil || !bytes.Equal(e2.b, e.b) {
				t.Fatal("task spec re-decode diverges")
			}
		case 4:
			// The server request dispatcher itself must never panic on an
			// arbitrary payload; errors come back as opErr frames.
			resp := srv.handle(&conn, data)
			if len(resp) == 0 {
				t.Fatal("handle returned an empty response")
			}
			if fresh := srv.handle(&connBuf{}, data); !bytes.Equal(resp, fresh) {
				t.Fatalf("reused buffers answer % x, fresh buffers % x", resp, fresh)
			}
		case 5:
			// A checkpoint file comes from disk, so seal the input with
			// its sha256 to get past the checksum. Whatever decodes must
			// re-encode to bytes that decode and re-encode to themselves.
			// (Equality with the input itself cannot hold: uvarints decode
			// from overlong forms too. Decoded values are not compared:
			// a NaN float round-trips bit-exactly but is != itself.)
			sum := sha256.Sum256(data)
			ck, err := DecodeCheckpoint(append(data[:len(data):len(data)], sum[:]...))
			if err != nil {
				return
			}
			b := EncodeCheckpoint(ck)
			ck2, err := DecodeCheckpoint(b)
			if err != nil {
				t.Fatalf("checkpoint re-decode fails: %v", err)
			}
			if !bytes.Equal(EncodeCheckpoint(ck2), b) {
				t.Fatal("checkpoint re-encode is not byte-stable")
			}
		}
	})
}

// stubPlacer keeps the fuzz dispatcher cheap: decoding is the target, not
// fleet execution.
type stubPlacer struct{}

func (stubPlacer) Info() (*Info, error) { return &Info{}, nil }
func (stubPlacer) Submit(int, []fpga.TaskSpec) ([]fleet.Placement, error) {
	return nil, nil
}
func (stubPlacer) Drain() error                     { return nil }
func (stubPlacer) Loads() ([]fpga.LoadStats, error) { return nil, nil }
func (stubPlacer) SnapshotShard(int) (*fpga.Snapshot, error) {
	return &fpga.Snapshot{}, nil
}
func (stubPlacer) RestoreShard(int, *fpga.Snapshot) error { return nil }
func (stubPlacer) Restored() ([]int, error)               { return nil, nil }
func (stubPlacer) Finish() (*fleet.Stats, error)          { return &fleet.Stats{}, nil }
