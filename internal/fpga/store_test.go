package fpga

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestTaskRecordLayout pins the sizes DESIGN.md's per-task storage
// section is built on: a 56-byte record and a chunk that fills one
// allocator size class exactly.
func TestTaskRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(taskRec{}); got != 56 {
		t.Fatalf("taskRec is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(taskChunk{}); got != 14336 {
		t.Fatalf("taskChunk is %d bytes, want 14336", got)
	}
}

// indexCheck asserts the store's ID index against the oracle: every
// oracle ID probes to its task index, the table is a power of two filled
// to at most 3/4, and it holds exactly one entry per task.
func indexCheck(t *testing.T, s *taskStore, oracle map[int]int) {
	t.Helper()
	if s.n != len(oracle) {
		t.Fatalf("store holds %d tasks, oracle %d", s.n, len(oracle))
	}
	if len(s.slots) == 0 {
		if s.n != 0 {
			t.Fatalf("%d tasks but no index table", s.n)
		}
		return
	}
	if size := len(s.slots); size&(size-1) != 0 || 4*s.n > 3*size {
		t.Fatalf("table of %d slots for %d tasks", size, s.n)
	}
	filled := 0
	for _, e := range s.slots {
		if e != 0 {
			filled++
		}
	}
	if filled != s.n {
		t.Fatalf("%d filled slots for %d tasks", filled, s.n)
	}
	for id, want := range oracle {
		if _, got := s.probe(id); got != want {
			t.Fatalf("probe(%d) = %d, want %d", id, got, want)
		}
		if s.at(want).id != id {
			t.Fatalf("record %d holds ID %d, want %d", want, s.at(want).id, id)
		}
	}
}

// FuzzIDIndex checks the open-addressing ID index against a map oracle.
// The input is read as 3-byte ops [kind, a, b]; the kind's low three bits
// pick how the ID is made:
//
//	0: small, a (repeats are likely)
//	1: negative, -a-1
//	2: colliding, (a<<32) | (a^b): every ID with the same b has the
//	   same 32-bit key, so probes must tell them apart by the record
//	3: very large, MaxInt-a or, with kind bit 4, MinInt+a
//	4: a run of a+1 fresh consecutive IDs, which grows the table across
//	   several sizes (up to maxFuzzTasks tasks, which keeps an input fast)
//
// and kind bit 3 refuses the task: the probe runs, the slot is not
// filled, and the table must be unchanged. A lookup of an unrelated ID
// between a probe and its fill checks that only an add moves slots.
func FuzzIDIndex(f *testing.F) {
	const maxFuzzTasks = 1 << 12
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 2, 0})
	f.Add([]byte{2, 1, 7, 2, 2, 7, 2, 3, 7, 2, 1, 7, 10, 4, 7})
	f.Add([]byte{1, 0, 0, 3, 0, 0, 19, 0, 0, 3, 0, 0, 1, 0, 0})
	f.Add([]byte{4, 255, 0, 4, 255, 0, 4, 40, 0, 0, 3, 0, 12, 9, 0})
	f.Add([]byte{4, 6, 0})  // 7 tasks: the first growth, at load 7/8
	f.Add([]byte{4, 99, 0}) // 100 tasks: five growths
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s taskStore
		oracle := map[int]int{}
		fresh := 1 << 40 // run IDs, clear of every other kind
		submit := func(id int, refuse bool, other int) {
			before := slices.Clone(s.slots)
			slot, idx := s.probe(id)
			want, ok := oracle[id]
			switch {
			case ok && idx != want:
				t.Fatalf("probe(%d) = %d, want %d", id, idx, want)
			case !ok && idx != -1:
				t.Fatalf("probe(%d) found %d for an ID never added", id, idx)
			case !ok && slot >= 0 && s.slots[slot] != 0:
				t.Fatalf("probe(%d) returned filled slot %d", id, slot)
			case !ok && slot < 0 && len(s.slots) != 0:
				t.Fatalf("probe(%d) returned no slot from a %d-slot table", id, len(s.slots))
			}
			s.probe(other)
			if !slices.Equal(before, s.slots) {
				t.Fatalf("probing %d and %d changed the table", id, other)
			}
			if ok || refuse {
				return
			}
			oracle[id] = s.add(slot, taskRec{id: id, node: -1}, "")
			if _, got := s.probe(id); got != oracle[id] {
				t.Fatalf("probe(%d) after add = %d, want %d", id, got, oracle[id])
			}
		}
		for len(ops) >= 3 {
			kind, a, b := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			refuse := kind&8 != 0
			var id int
			switch kind & 7 {
			case 0:
				id = a
			case 1:
				id = -a - 1
			case 2:
				id = a<<32 | (a ^ b)
			case 3:
				id = math.MaxInt - a
				if kind&16 != 0 {
					id = math.MinInt + a
				}
			case 4:
				for range min(a+1, maxFuzzTasks-len(oracle)) {
					submit(fresh, refuse, b)
					fresh++
				}
				indexCheck(t, &s, oracle)
				continue
			default:
				id = b - a
			}
			submit(id, refuse, a<<32|b)
		}
		indexCheck(t, &s, oracle)
	})
}

// TestTaskNamesRoundTrip runs named and unnamed tasks across a chunk
// boundary through Submit, SubmitBatch, Snapshot, restoreScheduler and
// Schedule: every name must come back on its own task, in every view,
// and a restored scheduler must keep adding names where the original
// left off.
func TestTaskNamesRoundTrip(t *testing.T) {
	name := func(id int) string {
		if id%3 == 0 {
			return fmt.Sprintf("task-%d", id)
		}
		return ""
	}
	check := func(what string, tasks []Task) {
		t.Helper()
		for _, tk := range tasks {
			if tk.Name != name(tk.ID) {
				t.Fatalf("%s: task %d named %q, want %q", what, tk.ID, tk.Name, name(tk.ID))
			}
		}
	}
	batch := func(from, to int) []TaskSpec {
		var specs []TaskSpec
		for id := from; id < to; id++ {
			specs = append(specs, TaskSpec{ID: id, Name: name(id), Cols: 1 + id%3,
				Duration: 1 + float64(id%4), Actual: 0.5 + float64(id%2), Release: float64(id) / 4})
		}
		return specs
	}
	o, err := NewOnlineSchedulerAdmission(NewDevice(8), ReclaimCompact,
		AdmissionConfig{Policy: AdmitShed, MaxBacklog: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential submissions up to just short of the first chunk boundary.
	const split = chunkLen - 5
	for id := 0; id < split; id++ {
		tk, err := o.Submit(id, name(id), 1+id%3, 1+float64(id%4), float64(id)/4)
		if err != nil {
			t.Fatal(err)
		}
		check("Submit", []Task{tk})
	}
	// A batch across the boundary, appended after a caller's prefix.
	prefix := []Task{{ID: -1, Name: name(-1)}}
	placed, err := o.SubmitBatch(prefix, batch(split, chunkLen+40))
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) < 2 || placed[0] != prefix[0] {
		t.Fatalf("SubmitBatch dropped the caller's prefix: %+v", placed[:min(len(placed), 2)])
	}
	check("SubmitBatch", placed[1:])
	if o.Load().Shed == 0 {
		t.Fatal("no task was shed; the run does not cover Schedule's skip")
	}
	snap := o.Snapshot()
	if len(snap.Tasks) != o.tasks.n || o.tasks.n <= chunkLen {
		t.Fatalf("snapshot of %d tasks for %d submitted", len(snap.Tasks), o.tasks.n)
	}
	check("Snapshot", snap.Tasks)
	check("Schedule", o.Schedule().Tasks)
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	r, err := restoreScheduler(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), snap) {
		t.Fatal("restored scheduler's snapshot differs from the original's")
	}
	// Both continue across the next chunk boundary and must agree.
	more := batch(chunkLen+40, 2*chunkLen+10)
	a, err := o.SubmitBatch(nil, more)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SubmitBatch(nil, more)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("restored scheduler placed the next batch differently")
	}
	check("SubmitBatch after restore", b)
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	check("Schedule after restore", r.Schedule().Tasks)
	ja, _ := json.Marshal(o.Snapshot())
	jb, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(ja, jb) {
		t.Fatal("original and restored snapshots diverge after the second batch")
	}
}

// TestUnnamedTasksAllocateNoNames: a history in which no task is named
// keeps no side table at all.
func TestUnnamedTasksAllocateNoNames(t *testing.T) {
	o := NewOnlineScheduler(NewDevice(4))
	for id := range 3 * chunkLen {
		if _, err := o.Submit(id, "", 1+id%4, 1, float64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if o.tasks.names != nil {
		t.Fatalf("unnamed history holds a name table of %d entries", len(o.tasks.names))
	}
}

// TestIdleSnapshotForm pins the JSON form of an idle scheduler's
// snapshot: its task slices are null and Actual is an empty array, the
// form the service's wire codec reproduces, so an idle shard's snapshot
// reads the same fetched directly or over the wire.
func TestIdleSnapshotForm(t *testing.T) {
	blob, err := json.Marshal(NewOnlineScheduler(NewDevice(4)).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Tasks":null`, `"Done":null`, `"Shed":null`, `"Started":null`, `"Actual":[]`} {
		if !bytes.Contains(blob, []byte(want)) {
			t.Fatalf("idle snapshot lacks %s: %s", want, blob)
		}
	}
}
