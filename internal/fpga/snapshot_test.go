package fpga

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"strippack/internal/geom"
	"strippack/internal/workload"
)

// restoreScheduler restores a Snapshot the way production restores a
// shard: through its bytes and DecodeScheduler, which holds them to every
// validation rule.
func restoreScheduler(s *Snapshot) (*OnlineScheduler, error) {
	o, _, err := DecodeScheduler(AppendSnapshot(nil, s))
	return o, err
}

// runTrace drives a scheduler through a churn trace from submission index
// `from` on, skipping admission rejections, and drains it.
func runTrace(t *testing.T, o *OnlineScheduler, tasks []workload.ChurnTask, from int) {
	t.Helper()
	for id := from; id < len(tasks); id++ {
		ct := tasks[id]
		if _, err := o.SubmitWithLifetime(id, "", ct.Cols, ct.Duration, ct.Lifetime, ct.Release); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("submit %d: %v", id, err)
		}
	}
	if err := o.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSnapshotRestoreReplay is the crash-restart-mid-churn test: a
// scheduler is snapshotted mid-trace, serialized through JSON (the crash),
// restored, and fed the remaining trace; its final state must be
// byte-identical to the uninterrupted run's — for every reclaim policy,
// with and without bounded admission, at several crash points.
func TestSnapshotRestoreReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	admissions := []AdmissionConfig{
		{},
		{Policy: AdmitBounded, MaxBacklog: 4},
		{Policy: AdmitShed, MaxBacklog: 4},
	}
	for _, policy := range []Policy{NoReclaim, Reclaim, ReclaimCompact} {
		for _, ac := range admissions {
			tasks, err := workload.Churn(rng, 300, 8, 0.9, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			d := &Device{Columns: 8, ReconfigDelay: 0.25}
			full, err := NewOnlineSchedulerAdmission(d, policy, ac)
			if err != nil {
				t.Fatal(err)
			}
			runTrace(t, full, tasks, 0)
			want, err := json.Marshal(full.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range []int{0, 1, 150, 299} {
				crashed, err := NewOnlineSchedulerAdmission(d, policy, ac)
				if err != nil {
					t.Fatal(err)
				}
				for id := 0; id < cut; id++ {
					ct := tasks[id]
					if _, err := crashed.SubmitWithLifetime(id, "", ct.Cols, ct.Duration, ct.Lifetime, ct.Release); err != nil && !errors.Is(err, ErrRejected) {
						t.Fatalf("submit %d: %v", id, err)
					}
				}
				blob, err := json.Marshal(crashed.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				var snap Snapshot
				if err := json.Unmarshal(blob, &snap); err != nil {
					t.Fatal(err)
				}
				restored, err := restoreScheduler(&snap)
				if err != nil {
					t.Fatalf("policy %v admission %v cut %d: restore: %v", policy, ac.Policy, cut, err)
				}
				runTrace(t, restored, tasks, cut)
				got, err := json.Marshal(restored.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("policy %v admission %v cut %d: restored replay diverged:\n got %s\nwant %s",
						policy, ac.Policy, cut, got, want)
				}
			}
		}
	}
}

// TestRestoreDelayStartKey: with a reconfiguration delay, startAfter can
// step a queued task's Start, so Start-delay lies ulps above the
// occupancy the window search returned. DecodeScheduler keys the task's
// start event by Start-delay, so the live scheduler must too: otherwise,
// at a clock between the two keys, only the live one starts the task and
// a kill+recover+replay diverges from the uninterrupted run.
func TestRestoreDelayStartKey(t *testing.T) {
	const delay = 0.05
	end := 4096.0
	for i := 0; i < 3; i++ {
		end = math.Nextafter(end, 0) // three ulps below a power of two
	}
	// The smallest clock at which an occupancy beginning at end counts as
	// begun (promotion allows Eps).
	at := end - geom.Eps
	for at+geom.Eps < end {
		at = math.Nextafter(at, math.Inf(1))
	}
	for p := math.Nextafter(at, 0); p+geom.Eps >= end; p = math.Nextafter(at, 0) {
		at = p
	}
	for _, policy := range []Policy{NoReclaim, Reclaim, ReclaimCompact} {
		live := NewOnlineSchedulerPolicy(&Device{Columns: 1, ReconfigDelay: delay}, policy)
		a, err := live.Submit(0, "", 1, end-startAfter(0, delay), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := live.Submit(1, "", 1, 1, 0) // queues behind a
		if err != nil {
			t.Fatal(err)
		}
		if a.End() != end || b.Start-delay == end || at+geom.Eps >= b.Start-delay {
			t.Fatalf("policy %v: a ends at %.17g, b starts at %.17g: the case no longer steps b's start",
				policy, a.End(), b.Start)
		}
		restored, err := restoreScheduler(live.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for _, clock := range []float64{at, b.Start - delay} {
			for _, o := range []*OnlineScheduler{live, restored} {
				if err := o.AdvanceTo(clock); err != nil {
					t.Fatal(err)
				}
			}
			got, _ := json.Marshal(restored.Snapshot())
			want, _ := json.Marshal(live.Snapshot())
			if !bytes.Equal(got, want) {
				t.Fatalf("policy %v: at clock %.17g the restored scheduler has %d tasks waiting, the live one %d",
					policy, clock, restored.Load().Waiting, live.Load().Waiting)
			}
		}
		if w := live.Load().Waiting; w != 0 {
			t.Fatalf("policy %v: %d tasks still wait at b's occupancy", policy, w)
		}
	}
}

// TestSnapshotCanonical asserts the property the fault-injection harness
// builds on: snapshots are canonical, so snapshotting twice without an
// intervening state change yields deeply equal values, and a restored
// scheduler's snapshot equals the original's even though the internal
// heaps differ.
func TestSnapshotCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks, err := workload.Churn(rng, 120, 6, 0.85, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	d := &Device{Columns: 6, ReconfigDelay: 0.25}
	o := NewOnlineSchedulerPolicy(d, ReclaimCompact)
	for id, ct := range tasks {
		if _, err := o.SubmitWithLifetime(id, "", ct.Cols, ct.Duration, ct.Lifetime, ct.Release); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := json.Marshal(o.Snapshot())
	b, _ := json.Marshal(o.Snapshot())
	if !bytes.Equal(a, b) {
		t.Fatal("two snapshots of an untouched scheduler differ")
	}
	var snap Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	r, err := restoreScheduler(&snap)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(a, c) {
		t.Fatal("restored scheduler's snapshot differs from the original")
	}
	// The ID index is derived state the snapshot does not show: restore
	// refills it, and it must map every task as the original's does.
	if r.tasks.n != o.tasks.n {
		t.Fatalf("restored %d tasks, original has %d", r.tasks.n, o.tasks.n)
	}
	for i := range o.tasks.n {
		id := o.tasks.at(i).id
		if _, got := r.tasks.probe(id); got != i {
			t.Fatalf("restored index maps task %d to %d, want %d", id, got, i)
		}
	}
}

// TestRestoreValidation corrupts a live snapshot one field at a time and
// asserts every corruption is rejected with ErrBadSnapshot.
func TestRestoreValidation(t *testing.T) {
	base := func() *Snapshot {
		d := &Device{Columns: 4, ReconfigDelay: 0.25}
		o := NewOnlineSchedulerPolicy(d, ReclaimCompact)
		if _, err := o.SubmitWithLifetime(1, "", 2, 2, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Submit(2, "", 4, 3, 0); err != nil {
			t.Fatal(err)
		}
		return o.Snapshot()
	}
	if _, err := restoreScheduler(base()); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(*Snapshot)
	}{
		{"version", func(s *Snapshot) { s.Version = 2 }},
		{"columns", func(s *Snapshot) { s.Columns = 0 }},
		{"delay", func(s *Snapshot) { s.ReconfigDelay = math.Inf(1) }},
		{"policy", func(s *Snapshot) { s.Policy = Policy(9) }},
		{"admission", func(s *Snapshot) { s.Admission = AdmissionConfig{Policy: AdmitBounded} }},
		{"clock", func(s *Snapshot) { s.Now = math.NaN() }},
		{"flag lengths", func(s *Snapshot) { s.Done = s.Done[:1] }},
		{"horizon length", func(s *Snapshot) { s.Horizon = s.Horizon[:2] }},
		{"horizon value", func(s *Snapshot) { s.Horizon[0] = math.Inf(1) }},
		{"duplicate ID", func(s *Snapshot) { s.Tasks[1].ID = s.Tasks[0].ID }},
		{"task columns", func(s *Snapshot) { s.Tasks[0].Cols = 9 }},
		// FirstCol+Cols would wrap to a negative sum and pass a naive
		// bound check.
		{"task first column overflow", func(s *Snapshot) { s.Tasks[0].FirstCol = math.MaxInt }},
		{"task duration", func(s *Snapshot) { s.Tasks[0].Duration = 0 }},
		{"done unstarted", func(s *Snapshot) { s.Done[1] = true }},
		{"shed started", func(s *Snapshot) { s.Shed[0] = true }},
		{"actual", func(s *Snapshot) { s.Actual[0] = math.NaN() }},
		{"fixedEnd length", func(s *Snapshot) { s.FixedEnd = nil }},
		{"slack range", func(s *Snapshot) { s.Slack = []int{7} }},
		{"slack started", func(s *Snapshot) { s.Slack = []int{0} }},
		{"stray compaction state", func(s *Snapshot) { s.Policy = NoReclaim }},
	}
	for _, tc := range cases {
		s := base()
		tc.corrupt(s)
		_, err := restoreScheduler(s)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

// FuzzSnapshotRestore drives two schedulers through the same random op
// stream, crashing and restoring one of them at an arbitrary cut point,
// and asserts the final states are byte-identical — the fuzz companion of
// TestSnapshotRestoreReplay.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(10))
	f.Add(int64(42), uint8(131), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, kb, cutb uint8) {
		rng := rand.New(rand.NewSource(seed))
		K := 1 + int(kb)%16
		d := &Device{Columns: K, ReconfigDelay: 0.25}
		policy := Policy(int(kb/16) % 3)
		ac := AdmissionConfig{}
		switch int(kb/48) % 3 {
		case 1:
			ac = AdmissionConfig{Policy: AdmitBounded, MaxBacklog: 2}
		case 2:
			ac = AdmissionConfig{Policy: AdmitShed, MaxBacklog: 2}
		}
		tasks, err := workload.Churn(rng, 40, K, 0.9, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		cut := int(cutb) % (len(tasks) + 1)
		full, err := NewOnlineSchedulerAdmission(d, policy, ac)
		if err != nil {
			t.Fatal(err)
		}
		runTrace(t, full, tasks, 0)
		crashed, err := NewOnlineSchedulerAdmission(d, policy, ac)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < cut; id++ {
			ct := tasks[id]
			if _, err := crashed.SubmitWithLifetime(id, "", ct.Cols, ct.Duration, ct.Lifetime, ct.Release); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatal(err)
			}
		}
		blob, err := json.Marshal(crashed.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			t.Fatal(err)
		}
		restored, err := restoreScheduler(&snap)
		if err != nil {
			t.Fatal(err)
		}
		runTrace(t, restored, tasks, cut)
		got, _ := json.Marshal(restored.Snapshot())
		want, _ := json.Marshal(full.Snapshot())
		if !bytes.Equal(got, want) {
			t.Fatalf("restored replay diverged:\n got %s\nwant %s", got, want)
		}
	})
}
