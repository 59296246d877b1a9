package fpga

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"strippack/internal/workload"
)

func TestParseAdmission(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AdmissionPolicy
	}{
		{"unbounded", AdmitAll}, {"none", AdmitAll},
		{"reject", AdmitBounded}, {"bounded", AdmitBounded},
		{"shed", AdmitShed},
	} {
		got, err := ParseAdmission(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAdmission(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAdmission("bogus"); err == nil {
		t.Error("unknown admission policy accepted")
	}
}

func TestAdmissionConfigValidate(t *testing.T) {
	for _, p := range []AdmissionPolicy{AdmitBounded, AdmitShed} {
		if _, err := NewOnlineSchedulerAdmission(&Device{Columns: 2}, NoReclaim,
			AdmissionConfig{Policy: p}); err == nil {
			t.Errorf("%v with MaxBacklog 0 accepted", p)
		}
	}
	if _, err := NewOnlineSchedulerAdmission(&Device{Columns: 2}, NoReclaim,
		AdmissionConfig{Policy: AdmissionPolicy(7), MaxBacklog: 1}); err == nil {
		t.Error("unknown admission policy accepted")
	}
	// Task records keep column fields in int32s.
	if _, err := NewOnlineSchedulerAdmission(&Device{Columns: maxColumns + 1}, NoReclaim,
		AdmissionConfig{}); err == nil {
		t.Error("device wider than maxColumns accepted")
	}
}

// TestAdmissionBounded fills a 1-column device and asserts the bounded
// policy refuses exactly the submissions that would exceed the backlog
// bound, with errors matching both ErrBacklogFull and ErrRejected, and
// that a refusal leaves placements untouched.
func TestAdmissionBounded(t *testing.T) {
	d := &Device{Columns: 1}
	o, err := NewOnlineSchedulerAdmission(d, NoReclaim, AdmissionConfig{Policy: AdmitBounded, MaxBacklog: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Task 0 starts immediately; 1 and 2 wait; 3 must be refused.
	for id := 0; id < 3; id++ {
		if _, err := o.Submit(id, "", 1, 10, 0); err != nil {
			t.Fatalf("submit %d: %v", id, err)
		}
	}
	before := o.Makespan()
	_, err = o.Submit(3, "", 1, 10, 0)
	if !errors.Is(err, ErrBacklogFull) || !errors.Is(err, ErrRejected) {
		t.Fatalf("overflow submit: got %v, want ErrBacklogFull (and ErrRejected)", err)
	}
	// The refusal formats its text only when asked, and the text is the
	// one Submit has always returned.
	if got, want := err.Error(), "fpga: task 3 refused: 2 tasks waiting >= backlog bound 2"; got != want {
		t.Fatalf("refusal text %q, want %q", got, want)
	}
	if o.Makespan() != before {
		t.Fatal("rejected submission changed the horizon")
	}
	ld := o.Load()
	if ld.Waiting != 2 || ld.Rejected != 1 || ld.Running != 1 {
		t.Fatalf("load stats after reject: %+v", ld)
	}
	// A rejected ID is not live: it can be resubmitted once the backlog
	// drains, and completing it is ErrUnknownTask meanwhile.
	if err := o.Complete(3, 5); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("complete rejected task: got %v, want ErrUnknownTask", err)
	}
	if err := o.AdvanceTo(25); err != nil { // tasks 0-1 started by now
		t.Fatal(err)
	}
	if _, err := o.Submit(3, "", 1, 10, 25); err != nil {
		t.Fatalf("resubmit after drain: %v", err)
	}
}

// TestAdmissionShed asserts the shed policy evicts the oldest waiting task
// to admit a new one: the shed task vanishes from the schedule, its
// columns are reusable, completing it is ErrShedTask, and the backlog
// never exceeds the bound.
func TestAdmissionShed(t *testing.T) {
	for _, policy := range []Policy{NoReclaim, Reclaim, ReclaimCompact} {
		d := &Device{Columns: 1}
		o, err := NewOnlineSchedulerAdmission(d, policy, AdmissionConfig{Policy: AdmitShed, MaxBacklog: 2})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 3; id++ {
			if _, err := o.Submit(id, "", 1, 10, 0); err != nil {
				t.Fatalf("policy %v submit %d: %v", policy, id, err)
			}
		}
		// Backlog is {1, 2}; submitting 3 sheds 1 (the oldest waiting).
		if _, err := o.Submit(3, "", 1, 10, 0); err != nil {
			t.Fatalf("policy %v submit 3: %v", policy, err)
		}
		if got := o.ShedIDs(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("policy %v shed IDs %v, want [1]", policy, got)
		}
		if err := o.Complete(1, 15); !errors.Is(err, ErrShedTask) {
			t.Fatalf("policy %v complete shed task: got %v, want ErrShedTask", policy, err)
		}
		ld := o.Load()
		if ld.Waiting != 2 || ld.Shed != 1 {
			t.Fatalf("policy %v load stats after shed: %+v", policy, ld)
		}
		if err := o.Drain(); err != nil {
			t.Fatal(err)
		}
		sched := o.Schedule()
		if len(sched.Tasks) != 3 {
			t.Fatalf("policy %v schedule has %d tasks, want 3", policy, len(sched.Tasks))
		}
		for _, task := range sched.Tasks {
			if task.ID == 1 {
				t.Fatalf("policy %v shed task still in schedule", policy)
			}
		}
		if _, err := sched.Simulate(); err != nil {
			t.Fatalf("policy %v simulate after shed: %v", policy, err)
		}
	}
}

// TestShedReusesWindow asserts shedding actually frees capacity under the
// reclaiming policies: on a 1-column device with a shed backlog bound of
// 1, the replacement submission takes over the shed task's window.
func TestShedReusesWindow(t *testing.T) {
	d := &Device{Columns: 1}
	o, err := NewOnlineSchedulerAdmission(d, Reclaim, AdmissionConfig{Policy: AdmitShed, MaxBacklog: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Submit(0, "", 1, 10, 0); err != nil { // runs [0, 10)
		t.Fatal(err)
	}
	if _, err := o.Submit(1, "", 1, 10, 0); err != nil { // waits at 10
		t.Fatal(err)
	}
	got, err := o.Submit(2, "", 1, 10, 0) // sheds 1, inherits its window
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != 10 {
		t.Fatalf("replacement starts at %g, want 10 (the shed task's window)", got.Start)
	}
}

// TestOverloadBacklogBounded is the overload acceptance check: at load
// 0.90 — past the ~0.75 fragmentation capacity where the unbounded backlog
// grows without bound — the bounded and shed policies keep the waiting
// queue under the configured bound for a 100k-task churn run, under both
// reclaiming policies.
func TestOverloadBacklogBounded(t *testing.T) {
	const n, K, bound = 100_000, 16, 64
	rng := rand.New(rand.NewSource(90))
	tasks, err := workload.Churn(rng, n, K, 0.90, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d := &Device{Columns: K, ReconfigDelay: 0.05}
	for _, policy := range []Policy{Reclaim, ReclaimCompact} {
		for _, ap := range []AdmissionPolicy{AdmitBounded, AdmitShed} {
			_, st, err := RunChurnAdmission(tasks, d, policy, AdmissionConfig{Policy: ap, MaxBacklog: bound})
			if err != nil {
				t.Fatalf("%v/%v: %v", policy, ap, err)
			}
			if st.MaxBacklog > bound {
				t.Errorf("%v/%v: backlog peaked at %d, bound %d", policy, ap, st.MaxBacklog, bound)
			}
			if st.Admitted+st.Rejected+st.Shed != n {
				t.Errorf("%v/%v: admitted %d + rejected %d + shed %d != %d",
					policy, ap, st.Admitted, st.Rejected, st.Shed, n)
			}
			if ap == AdmitBounded && st.Shed != 0 {
				t.Errorf("%v/%v: bounded policy shed %d tasks", policy, ap, st.Shed)
			}
			// Overload at 0.90 must actually engage the gate, or the test
			// proves nothing.
			if st.Rejected+st.Shed == 0 {
				t.Errorf("%v/%v: overload run refused nothing", policy, ap)
			}
		}
	}
}

// TestLoadStats sanity-checks the saturation accounting: idle scheduler
// reports zero, a busy one reports Load in (0, 1], and committed
// column-time matches a hand computation.
func TestLoadStats(t *testing.T) {
	d := &Device{Columns: 4}
	o := NewOnlineSchedulerPolicy(d, NoReclaim)
	if ld := o.Load(); ld.Load != 0 || ld.Window != 0 || ld.CommittedColTime != 0 {
		t.Fatalf("idle load stats: %+v", ld)
	}
	if _, err := o.Submit(0, "", 2, 10, 0); err != nil { // 2 cols x [0, 10)
		t.Fatal(err)
	}
	ld := o.Load()
	if ld.Horizon != 10 || ld.Window != 10 || ld.CommittedColTime != 20 {
		t.Fatalf("load stats after one task: %+v", ld)
	}
	if want := 20.0 / 40.0; math.Abs(ld.Load-want) > 1e-12 {
		t.Fatalf("load %g, want %g", ld.Load, want)
	}
	if ld.Running != 1 || ld.Waiting != 0 {
		t.Fatalf("counts: %+v", ld)
	}
}

// TestErrorTaxonomy asserts every rejection path wraps its documented
// sentinel, so callers can classify failures with errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	d := &Device{Columns: 2}
	o := NewOnlineSchedulerPolicy(d, Reclaim)
	if _, err := o.Submit(1, "", 1, 10, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"cols", e2(o.Submit(9, "", 3, 1, 0)), ErrInvalidTask},
		{"NaN duration", e2(o.Submit(9, "", 1, math.NaN(), 0)), ErrNonFinite},
		{"Inf release", e2(o.Submit(9, "", 1, 1, math.Inf(1))), ErrNonFinite},
		{"zero duration", e2(o.Submit(9, "", 1, 0, 0)), ErrInvalidTask},
		{"NaN lifetime", e2(o.SubmitWithLifetime(9, "", 1, 1, math.NaN(), 0)), ErrNonFinite},
		{"long lifetime", e2(o.SubmitWithLifetime(9, "", 1, 1, 2, 0)), ErrInvalidTask},
		{"duplicate", e2(o.Submit(1, "", 1, 1, 0)), ErrDuplicateID},
		{"unknown", o.Complete(42, 1), ErrUnknownTask},
		{"NaN completion", o.Complete(1, math.NaN()), ErrNonFinite},
		{"early completion", o.Complete(1, 0), ErrBadCompletionTime},
		{"late completion", o.Complete(1, 11), ErrBadCompletionTime},
	}
	if err := o.Complete(1, 5); err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		struct {
			name string
			err  error
			want error
		}{"double completion", o.Complete(1, 5), ErrAlreadyCompleted},
		struct {
			name string
			err  error
			want error
		}{"regression", o.Complete(1, 1), ErrTimeRegression},
	)
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.err, tc.want)
		}
	}
}

func e2(_ Task, err error) error { return err }
