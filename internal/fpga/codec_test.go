package fpga

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestSnapshotPrimitives round-trips the snapshot codec's primitives and
// checks that its decoder refuses what does not decode: a bool byte
// other than 0 or 1, truncated input (a sticky error) and a count larger
// than the bytes left can hold.
func TestSnapshotPrimitives(t *testing.T) {
	var b []byte
	b = appendCount(b, 0)
	b = appendCount(b, 1<<40)
	b = appendInt(b, -7)
	b = appendInt(b, math.MinInt64)
	b = appendF64(b, 0.1)
	b = appendF64(b, math.Inf(-1))
	b = appendF64(b, math.Copysign(0, -1)) // -0.0 must survive: floats travel as bits
	b = appendBool(b, true)
	b = appendBool(b, false)
	b = appendCount(b, 0)
	b = appendCount(b, len("héllo\x00world"))
	b = append(b, "héllo\x00world"...)
	d := &snapDec{b: b}
	if d.uint() != 0 || d.uint() != 1<<40 || d.int() != -7 || d.int() != math.MinInt64 {
		t.Fatal("int round trip")
	}
	if d.f64() != 0.1 || !math.IsInf(d.f64(), -1) {
		t.Fatal("float round trip")
	}
	if z := d.f64(); z != 0 || !math.Signbit(z) {
		t.Fatal("-0.0 did not survive")
	}
	if !d.bool() || d.bool() {
		t.Fatal("bool round trip")
	}
	if d.str() != "" || d.str() != "héllo\x00world" || d.err != nil || len(d.b) != 0 {
		t.Fatal("string round trip")
	}
	// A bool byte other than 0/1 is malformed, not coerced.
	d = &snapDec{b: []byte{2}}
	if d.bool(); !errors.Is(d.err, ErrMalformedSnapshot) {
		t.Fatal("bool byte 2 accepted")
	}
	// Truncated varint / float / string are sticky errors.
	for _, in := range [][]byte{{0x80}, {1, 2, 3}, {5, 'h', 'i'}} {
		d = &snapDec{b: in}
		d.uint()
		d.f64()
		d.str()
		if !errors.Is(d.err, ErrMalformedSnapshot) {
			t.Fatalf("truncated input %v accepted", in)
		}
	}
	// A huge count with a tiny body is refused before anything is made.
	d = &snapDec{b: binary.AppendUvarint(nil, 1<<50)}
	if n := d.count(8); n != 0 || d.err == nil {
		t.Fatalf("count guard: n=%d err=%v", n, d.err)
	}
	// The encoded lengths SnapshotLen adds up match the encoders'.
	for _, v := range []int{0, 1, -1, 63, -64, 64, 127, 128, 1 << 20, -1 << 40, math.MaxInt64, math.MinInt64} {
		if got, want := intLen(v), len(appendInt(nil, v)); got != want {
			t.Errorf("intLen(%d) = %d, encoding is %d bytes", v, got, want)
		}
		if v >= 0 {
			if got, want := countLen(v), len(appendCount(nil, v)); got != want {
				t.Errorf("countLen(%d) = %d, encoding is %d bytes", v, got, want)
			}
		}
	}
}

// TestBatchRefusalAllocatesNothing: SubmitBatch skips an admission
// refusal without allocating — only Submit, which returns the refusal,
// builds its error — and Submit's refusal still carries its numbers and
// matches both sentinels.
func TestBatchRefusalAllocatesNothing(t *testing.T) {
	o, err := NewOnlineSchedulerAdmission(NewDevice(2), NoReclaim, AdmissionConfig{Policy: AdmitBounded, MaxBacklog: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(0, "", 2, 100, 0); err != nil { // starts at once
		t.Fatal(err)
	}
	if _, err := o.Submit(1, "", 2, 1, 0); err != nil { // waits: the backlog is full
		t.Fatal(err)
	}
	spec := []TaskSpec{{ID: 2, Cols: 1, Duration: 1}}
	dst := make([]Task, 0, 1)
	if placed, err := o.SubmitBatch(dst, spec); err != nil || len(placed) != 0 {
		t.Fatalf("refused spec: placed %d, err %v", len(placed), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		o.SubmitBatch(dst, spec)
	})
	if allocs != 0 {
		t.Fatalf("a refused spec in SubmitBatch allocates %v times", allocs)
	}
	if got := o.Load().Rejected; got != 102 {
		t.Fatalf("%d refusals counted, want 102", got)
	}
	_, err = o.Submit(2, "", 1, 1, 0)
	if !errors.Is(err, ErrBacklogFull) || !errors.Is(err, ErrRejected) ||
		err.Error() != "fpga: task 2 refused: 1 tasks waiting >= backlog bound 1" {
		t.Fatalf("Submit's refusal: %v", err)
	}
}

// snapOp is one step of FuzzSnapshotBytes' op stream: a batch submission,
// or a clock advance when specs is nil.
type snapOp struct {
	specs []TaskSpec
	to    float64
}

// apply runs the op and returns its error's text ("" for none), so two
// schedulers can be compared op by op.
func (op snapOp) apply(o *OnlineScheduler) string {
	var err error
	if op.specs == nil {
		err = o.AdvanceTo(op.to)
	} else {
		_, err = o.SubmitBatch(nil, op.specs)
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// snapOps draws an op stream for a k-column device: batches of one to
// four tasks released around a rising clock, some with lifetimes, some
// named (when named is set, with names long enough to need a two-byte
// length), an occasional repeated ID, and clock advances in between.
func snapOps(rng *rand.Rand, n, k int, named bool) []snapOp {
	ops := make([]snapOp, 0, n)
	clock, id := 0.0, 0
	for range n {
		clock += rng.Float64()
		if rng.Intn(5) == 0 {
			ops = append(ops, snapOp{to: clock})
			continue
		}
		specs := make([]TaskSpec, 1+rng.Intn(4))
		for i := range specs {
			sp := &specs[i]
			sp.ID = id
			if rng.Intn(40) == 0 && id > 0 {
				sp.ID = rng.Intn(id) // a duplicate: a hard error on both sides
			}
			id++
			sp.Cols = 1 + rng.Intn(k)
			sp.Duration = 0.25 + 3*rng.Float64()
			if rng.Intn(3) > 0 {
				sp.Actual = sp.Duration * (0.1 + 0.9*rng.Float64())
			}
			sp.Release = clock + rng.Float64() - 0.5
			if named && rng.Intn(2) == 0 {
				sp.Name = fmt.Sprintf("task-%d-%s", sp.ID, strings.Repeat("x", rng.Intn(150)))
			}
		}
		ops = append(ops, snapOp{specs: specs})
	}
	return ops
}

// snapErrClass names the class of a restore error.
func snapErrClass(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, ErrMalformedSnapshot):
		return "malformed"
	case errors.Is(err, ErrBadSnapshot):
		return "invalid"
	}
	return "unclassified: " + err.Error()
}

// restoreViaStruct is the struct path: decode into a Snapshot, then
// restore it through its re-encoded bytes (restoreScheduler).
func restoreViaStruct(b []byte) (*OnlineScheduler, []byte, error) {
	s, rest, err := DecodeSnapshot(b)
	if err != nil {
		return nil, nil, err
	}
	o, err := restoreScheduler(s)
	return o, rest, err
}

// FuzzSnapshotBytes checks the snapshot byte codec differentially. A
// random op stream drives a scheduler under one of three policies × three
// admission configs, with or without a reconfiguration delay, with named
// or unnamed tasks. At the cut, the record encoder's bytes must equal the
// struct encoder's, and SnapshotLen their length. Then, on those bytes
// and on a truncated, a bit-flipped and a count-corrupted copy,
// DecodeScheduler must accept exactly when DecodeSnapshot plus
// restoreScheduler does, with the same error class and the same bytes
// left over; two schedulers so restored must snapshot identically and
// replay the rest of the stream identically — and, from the intact bytes,
// exactly as the live scheduler does.
func FuzzSnapshotBytes(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint16(7))
	f.Add(int64(2), uint8(0x3f), uint8(40), uint16(300))
	f.Add(int64(3), uint8(0x17), uint8(0), uint16(1))
	f.Add(int64(4), uint8(0x25), uint8(64), uint16(9999))
	f.Add(int64(5), uint8(0x08), uint8(33), uint16(52))
	f.Fuzz(func(t *testing.T, seed int64, shape, cut uint8, mut uint16) {
		admissions := [...]AdmissionConfig{{}, {Policy: AdmitBounded, MaxBacklog: 3}, {Policy: AdmitShed, MaxBacklog: 3}}
		policy, ac := Policy(shape%3), admissions[shape/3%3]
		rng := rand.New(rand.NewSource(seed))
		d := &Device{Columns: 1 + rng.Intn(8)}
		if shape&0x10 != 0 {
			d.ReconfigDelay = 0.25
		}
		ops := snapOps(rng, 64, d.Columns, shape&0x20 != 0)
		k := int(cut) % (len(ops) + 1)
		live, err := NewOnlineSchedulerAdmission(d, policy, ac)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops[:k] {
			op.apply(live)
		}

		b := live.AppendSnapshot(nil)
		if want := AppendSnapshot(nil, live.Snapshot()); !bytes.Equal(b, want) {
			t.Fatalf("record encoder gives %d bytes, struct encoder %d, and they differ", len(b), len(want))
		}
		if n := live.SnapshotLen(); n != len(b) {
			t.Fatalf("SnapshotLen %d, encoding %d bytes", n, len(b))
		}

		m := int(mut)
		flipped := bytes.Clone(b)
		flipped[m/8%len(b)] ^= 1 << (m % 8)
		hl := len(appendHeader(nil, live.header()))
		n := live.tasks.n
		counts := [...]int{n + 1, n - 1, 2*n + 1, 1 << 40}
		corrupt := appendCount(bytes.Clone(b[:hl]), counts[m%len(counts)])
		corrupt = append(corrupt, b[hl+countLen(n):]...)
		variants := []struct {
			name string
			b    []byte
		}{
			{"intact", b},
			{"intact with a trailer", append(bytes.Clone(b), 0xAB)},
			{"truncated", b[:m%len(b)]},
			{"bit-flipped", flipped},
			{"count-corrupted", corrupt},
		}
		for _, v := range variants {
			rec, recRest, recErr := DecodeScheduler(v.b)
			st, stRest, stErr := restoreViaStruct(v.b)
			if rc, sc := snapErrClass(recErr), snapErrClass(stErr); rc != sc {
				t.Fatalf("%s: DecodeScheduler %s (%v), struct path %s (%v)", v.name, rc, recErr, sc, stErr)
			}
			if recErr != nil {
				continue
			}
			if !bytes.Equal(recRest, stRest) {
				t.Fatalf("%s: %d bytes left after DecodeScheduler, %d after DecodeSnapshot", v.name, len(recRest), len(stRest))
			}
			if x, y := rec.AppendSnapshot(nil), st.AppendSnapshot(nil); !bytes.Equal(x, y) {
				t.Fatalf("%s: the two restored schedulers snapshot differently", v.name)
			}
			scheds := []*OnlineScheduler{rec, st}
			if v.name == "intact" {
				scheds = append(scheds, live)
			}
			for i, op := range ops[k:] {
				errs := make([]string, len(scheds))
				for j, o := range scheds {
					errs[j] = op.apply(o)
				}
				for j := 1; j < len(scheds); j++ {
					if errs[j] != errs[0] {
						t.Fatalf("%s: op %d: errors %q and %q", v.name, k+i, errs[0], errs[j])
					}
				}
			}
			want := scheds[0].AppendSnapshot(nil)
			for _, o := range scheds[1:] {
				if !bytes.Equal(o.AppendSnapshot(nil), want) {
					t.Fatalf("%s: replays of the rest of the stream diverge", v.name)
				}
			}
		}
	})
}
