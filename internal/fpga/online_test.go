package fpga

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"strippack/internal/core/release"
	"strippack/internal/geom"
	"strippack/internal/workload"
)

// Now returns the scheduler clock: the latest event time processed.
func (o *OnlineScheduler) Now() float64 { return o.now }

// Makespan returns the latest column horizon — the time the last committed
// column is promised free. Under Reclaim policies this can decrease when
// tasks complete early.
func (o *OnlineScheduler) Makespan() float64 { return o.horizon.maxAll() }

// ShedIDs returns a copy of the IDs evicted by the AdmitShed policy so
// far, in eviction order.
func (o *OnlineScheduler) ShedIDs() []int { return slices.Clone(o.shedIDs) }

func TestOnlineSubmitValidation(t *testing.T) {
	o := NewOnlineScheduler(NewDevice(4))
	if _, err := o.Submit(0, "", 0, 1, 0); err == nil {
		t.Fatal("zero columns accepted")
	}
	if _, err := o.Submit(0, "", 5, 1, 0); err == nil {
		t.Fatal("too many columns accepted")
	}
	if _, err := o.Submit(0, "", 1, 0, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

// TestSubmitRejectsNonFinite: NaN compares false against every bound, so
// `duration <= 0` and the cols checks used to let a NaN duration or
// release through, silently poisoning the horizon for every later
// placement. All non-finite durations, releases and lifetimes must error.
func TestSubmitRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name              string
		duration, release float64
		lifetime          float64 // NaN: use plain Submit
		useLifetime       bool
	}{
		{"NaN duration", nan, 0, 0, false},
		{"+Inf duration", inf, 0, 0, false},
		{"-Inf duration", -inf, 0, 0, false},
		{"NaN release", 1, nan, 0, false},
		{"+Inf release", 1, inf, 0, false},
		{"-Inf release", 1, -inf, 0, false},
		{"NaN lifetime", 1, 0, nan, true},
		{"+Inf lifetime", 1, 0, inf, true},
		{"zero lifetime", 1, 0, 0, true},
		{"negative lifetime", 1, 0, -1, true},
		{"lifetime exceeds duration", 1, 0, 1.5, true},
	}
	for _, p := range []Policy{NoReclaim, Reclaim, ReclaimCompact} {
		for _, c := range cases {
			o := NewOnlineSchedulerPolicy(NewDevice(4), p)
			var err error
			if c.useLifetime {
				_, err = o.SubmitWithLifetime(0, "", 1, c.duration, c.lifetime, c.release)
			} else {
				_, err = o.Submit(0, "", 1, c.duration, c.release)
			}
			if err == nil {
				t.Errorf("policy %v: %s accepted", p, c.name)
			}
			// The rejected submission must not have touched the horizon.
			if o.Makespan() != 0 {
				t.Errorf("policy %v: %s left a dirty horizon", p, c.name)
			}
		}
	}
	// Valid finite submissions still pass.
	o := NewOnlineScheduler(NewDevice(4))
	if _, err := o.Submit(1, "", 1, 1, 0.5); err != nil {
		t.Fatalf("finite submission rejected: %v", err)
	}
	if _, err := o.Submit(1, "", 1, 1, 0.5); err == nil {
		t.Fatal("duplicate task ID accepted")
	}
}

// TestCompleteValidation covers the completion-event error paths.
func TestCompleteValidation(t *testing.T) {
	o := NewOnlineSchedulerPolicy(NewDevice(2), Reclaim)
	task, err := o.Submit(7, "", 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Complete(9, 2); err == nil {
		t.Fatal("unknown task completed")
	}
	if err := o.Complete(7, math.NaN()); err == nil {
		t.Fatal("NaN completion time accepted")
	}
	if err := o.Complete(7, task.Start); err == nil {
		t.Fatal("completion at the start accepted")
	}
	if err := o.Complete(7, task.End()+1); err == nil {
		t.Fatal("overrun completion accepted")
	}
	if err := o.Complete(7, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Complete(7, 2.5); err == nil {
		t.Fatal("double completion accepted")
	}
	if _, err := o.Submit(8, "", 1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := o.Complete(8, 4); err == nil {
		t.Fatal("completion before the scheduler clock accepted")
	}
}

// TestSubmitAfterDrain: Drain must leave the clock at the last completion
// event, not +Inf — otherwise the next Submit would be floored at infinity
// and poison the horizon.
func TestSubmitAfterDrain(t *testing.T) {
	o := NewOnlineSchedulerPolicy(NewDevice(2), ReclaimCompact)
	if _, err := o.SubmitWithLifetime(0, "", 1, 2, 1.5, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := o.Now(); got != 1.5 {
		t.Fatalf("clock after drain = %g, want 1.5 (the last completion)", got)
	}
	task, err := o.Submit(1, "", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(task.Start, 0) || task.Start != 1.5 {
		t.Fatalf("post-drain submission starts at %g, want 1.5", task.Start)
	}
}

// TestReclaimReusesColumns: an early completion hands its columns back, so
// the next submission starts at the completion time instead of the
// declared end — the behavior NoReclaim forgoes.
func TestReclaimReusesColumns(t *testing.T) {
	for _, tc := range []struct {
		policy    Policy
		wantStart float64
	}{{NoReclaim, 10}, {Reclaim, 2}} {
		o := NewOnlineSchedulerPolicy(NewDevice(2), tc.policy)
		if _, err := o.Submit(0, "", 2, 10, 0); err != nil {
			t.Fatal(err)
		}
		if err := o.Complete(0, 2); err != nil {
			t.Fatal(err)
		}
		task, err := o.Submit(1, "", 2, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if task.Start != tc.wantStart {
			t.Fatalf("policy %v: start %g, want %g", tc.policy, task.Start, tc.wantStart)
		}
	}
}

// TestCompactionSlidesWaitingTask: under ReclaimCompact an already-placed
// waiting task slides down onto reclaimed column-time (keeping its
// columns); under plain Reclaim its placement is irrevocable.
func TestCompactionSlidesWaitingTask(t *testing.T) {
	for _, tc := range []struct {
		policy    Policy
		wantStart float64
	}{{Reclaim, 10}, {ReclaimCompact, 3}} {
		o := NewOnlineSchedulerPolicy(NewDevice(1), tc.policy)
		if _, err := o.Submit(0, "", 1, 10, 0); err != nil {
			t.Fatal(err)
		}
		queued, err := o.Submit(1, "", 1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if queued.Start != 10 {
			t.Fatalf("queued task starts at %g, want 10", queued.Start)
		}
		if err := o.Complete(0, 3); err != nil {
			t.Fatal(err)
		}
		got := o.Schedule().Tasks[1].Start
		if got != tc.wantStart {
			t.Fatalf("policy %v: waiting task starts at %g, want %g", tc.policy, got, tc.wantStart)
		}
		if _, err := o.Schedule().Simulate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOnlinePacksInParallel(t *testing.T) {
	o := NewOnlineScheduler(NewDevice(4))
	// Two 2-column tasks released together run side by side.
	t1, err := o.Submit(0, "a", 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := o.Submit(1, "b", 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Start != 0 || t2.Start != 0 {
		t.Fatalf("tasks serialized: %v %v", t1, t2)
	}
	if t1.FirstCol == t2.FirstCol {
		t.Fatal("tasks share columns")
	}
	if o.Makespan() != 1 {
		t.Fatalf("makespan = %g", o.Makespan())
	}
}

func TestOnlineWaitsForRelease(t *testing.T) {
	o := NewOnlineScheduler(NewDevice(2))
	task, err := o.Submit(0, "late", 1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if task.Start != 5 {
		t.Fatalf("start = %g, want 5", task.Start)
	}
}

func TestOnlineQueuesWhenFull(t *testing.T) {
	o := NewOnlineScheduler(NewDevice(2))
	if _, err := o.Submit(0, "w", 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	task, err := o.Submit(1, "q", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if task.Start != 3 {
		t.Fatalf("queued task starts at %g, want 3", task.Start)
	}
}

func TestOnlineReconfigDelay(t *testing.T) {
	d := &Device{Columns: 1, ReconfigDelay: 0.5}
	o := NewOnlineScheduler(d)
	task, err := o.Submit(0, "r", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if task.Start != 0.5 {
		t.Fatalf("start = %g, want 0.5 (after reconfiguration)", task.Start)
	}
	// The schedule must also pass the simulator's reconfiguration check.
	if _, err := o.Schedule().Simulate(); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigDelayNoDoubleBooking is the regression test for starts
// computed as occupancy + delay: when the sum rounds across a power of
// two, Start - delay came back one ulp below the predecessor's End and
// Simulate reported the column double-booked. On one column, task 0 ends
// one ulp below 4096 and task 1 queues behind it — placed there directly,
// or slid there by compaction when task 0's lifetime ends early at that
// time.
func TestReconfigDelayNoDoubleBooking(t *testing.T) {
	const delay = 0.05
	const dur = 4095.9499999999994 // delay + dur rounds to just below 4096
	for _, p := range []Policy{NoReclaim, Reclaim, ReclaimCompact} {
		for _, early := range []bool{false, true} {
			o := NewOnlineSchedulerPolicy(&Device{Columns: 1, ReconfigDelay: delay}, p)
			var first Task
			var err error
			if early {
				first, err = o.SubmitWithLifetime(0, "", 1, 2*dur, dur, 0)
			} else {
				first, err = o.Submit(0, "", 1, dur, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.Submit(1, "", 1, 1, 0); err != nil {
				t.Fatal(err)
			}
			if err := o.Drain(); err != nil {
				t.Fatal(err)
			}
			if early && p == ReclaimCompact && o.tasks.at(1).start > first.Start+dur+1 {
				t.Fatalf("policy %v: task 1 was not slid onto the early completion", p)
			}
			if _, err := o.Schedule().Simulate(); err != nil {
				t.Fatalf("policy %v early=%v: %v", p, early, err)
			}
		}
	}
}

func TestRunOnlineRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := workload.FPGA(rng, 5, 4, 1)
	in.AddEdge(0, 1)
	if _, err := RunOnline(in, NewDevice(4)); err == nil {
		t.Fatal("precedence accepted")
	}
	bad := workload.Uniform(rng, 3, 0.1, 0.33, 0.1, 1) // not column aligned
	if _, err := RunOnline(bad, NewDevice(4)); err == nil {
		t.Fatal("misaligned widths accepted")
	}
}

// releaseLowerBound returns a cheap valid lower bound on OPT for
// release-time instances: max(AREA/width, h_max, max_s(release_s + h_s)).
func releaseLowerBound(in *geom.Instance) float64 {
	lb := in.AreaLowerBound()
	for _, r := range in.Rects {
		lb = max(lb, r.H, r.Release+r.H)
	}
	return lb
}

func TestReleaseLowerBound(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 0.5, Release: 3},
		{W: 1, H: 1},
	})
	if lb := releaseLowerBound(in); math.Abs(lb-3.5) > 1e-12 {
		t.Fatalf("lb = %g, want 3.5 (release + height)", lb)
	}
}

// TestRunOnlineValidAndSimulates: online schedules are geometrically valid
// packings and survive the discrete-event simulator, and the makespan is at
// least every lower bound.
func TestRunOnlineValidAndSimulates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		K := 2 + rng.Intn(5)
		in := workload.FPGA(rng, 5+rng.Intn(20), K, 3)
		sched, err := RunOnline(in, NewDevice(K))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st, err := sched.Simulate()
		if err != nil {
			t.Fatalf("trial %d: simulate: %v", trial, err)
		}
		p, err := sched.ToPacking(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: packing invalid: %v", trial, err)
		}
		if math.Abs(st.Makespan-p.Height()) > 1e-9 {
			t.Fatalf("trial %d: makespan %g != height %g", trial, st.Makespan, p.Height())
		}
		if st.Makespan < releaseLowerBound(in)-1e-9 {
			t.Fatalf("trial %d: makespan below lower bound", trial)
		}
	}
}

// TestRunOnlineAllocCeiling: RunOnline knows how many tasks it replays,
// so the ID index and the chunk directory are sized once. What still
// allocates is one record chunk per 256 tasks (79 at n = 20,000) and the
// event heaps' doublings: 112 allocations at n = 20,000, where growing
// per-task slices by appending made 274.
func TestRunOnlineAllocCeiling(t *testing.T) {
	in := workload.FPGA(rand.New(rand.NewSource(3)), 20_000, 16, 5_000)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := RunOnline(in, NewDevice(16)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Fatalf("RunOnline made %v allocations for 20,000 tasks, ceiling 150", allocs)
	}
}

// TestRunOnlineDeviceTooWide: a device wider than a task record's int32
// column fields is refused with an error, not a panic.
func TestRunOnlineDeviceTooWide(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 1, H: 1}})
	if _, err := RunOnline(in, &Device{Columns: maxColumns + 1}); err == nil {
		t.Fatal("RunOnline accepted a device wider than maxColumns")
	}
}

// TestOnlineVsOfflineGap: offline greedy (which sees all tasks) should on
// average be no worse than the online scheduler.
func TestOnlineVsOfflineGap(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var onSum, offSum float64
	for trial := 0; trial < 20; trial++ {
		K := 4
		in := workload.FPGA(rng, 20, K, 4)
		sched, err := RunOnline(in, NewDevice(K))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sched.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		off, err := release.GreedySkyline(in)
		if err != nil {
			t.Fatal(err)
		}
		onSum += st.Makespan
		offSum += off.Height()
	}
	if offSum > onSum*1.05 {
		t.Fatalf("offline greedy (%g) noticeably worse than online (%g)", offSum, onSum)
	}
}

func TestToPackingValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := workload.FPGA(rng, 4, 2, 1)
	s := &Schedule{Device: NewDevice(2), Tasks: []Task{{ID: 0}}}
	if _, err := s.ToPacking(in); err == nil {
		t.Fatal("task count mismatch accepted")
	}
}

// TestToPackingRejectsDuplicateIDs: the task-count guard alone passes when
// two tasks share an ID — one placement silently overwrites the other and
// a rect is left unvalidated at the origin. Duplicates must error.
func TestToPackingRejectsDuplicateIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := workload.FPGA(rng, 3, 2, 0)
	s := &Schedule{Device: NewDevice(2), Tasks: []Task{
		{ID: 0, FirstCol: 0, Cols: 1, Start: 0, Duration: 1},
		{ID: 2, FirstCol: 1, Cols: 1, Start: 0, Duration: 1},
		{ID: 2, FirstCol: 1, Cols: 1, Start: 1, Duration: 1},
	}}
	if _, err := s.ToPacking(in); err == nil {
		t.Fatal("duplicate task IDs accepted")
	}
	s.Tasks[2].ID = 1
	if _, err := s.ToPacking(in); err != nil {
		t.Fatalf("distinct IDs rejected: %v", err)
	}
}
