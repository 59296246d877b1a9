package faultinject_test

import (
	"math/rand"
	"testing"

	"strippack/internal/faultinject"
	"strippack/internal/fpga"
	"strippack/internal/workload"
)

// TestHarnessOnChurn drives a churn stream through a harness-wrapped
// scheduler, injecting every applicable fault kind and crashing the
// scheduler every few submissions. The engine must reject every fault with
// its typed error and identical state, survive every crash-restore, and
// produce a final schedule the discrete-event simulator accepts — for
// every reclaim policy and admission policy combination.
func TestHarnessOnChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	admissions := []fpga.AdmissionConfig{
		{},
		{Policy: fpga.AdmitBounded, MaxBacklog: 3},
		{Policy: fpga.AdmitShed, MaxBacklog: 3},
	}
	for _, policy := range []fpga.Policy{fpga.NoReclaim, fpga.Reclaim, fpga.ReclaimCompact} {
		for _, ac := range admissions {
			tasks, err := workload.Churn(rng, 80, 6, 0.9, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			d := &fpga.Device{Columns: 6, ReconfigDelay: 0.25}
			o, err := fpga.NewOnlineSchedulerAdmission(d, policy, ac)
			if err != nil {
				t.Fatal(err)
			}
			h := faultinject.New(o, 0) // stream IDs are 1..n, spares go negative
			applied := make(map[faultinject.Kind]bool)
			for id, ct := range tasks {
				spec := fpga.TaskSpec{ID: id + 1, Cols: ct.Cols, Duration: ct.Duration, Actual: ct.Lifetime, Release: ct.Release}
				if _, err := h.Sched.SubmitBatch(nil, []fpga.TaskSpec{spec}); err != nil {
					t.Fatalf("%v/%v: submit %d: %v", policy, ac.Policy, id+1, err)
				}
				if err := h.InjectAll(); err != nil {
					t.Fatalf("%v/%v after submit %d: %v", policy, ac.Policy, id+1, err)
				}
				if id%17 == 0 {
					if err := h.Crash(); err != nil {
						t.Fatalf("%v/%v crash at %d: %v", policy, ac.Policy, id+1, err)
					}
				}
			}
			if err := h.Sched.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := h.InjectAll(); err != nil {
				t.Fatalf("%v/%v after drain: %v", policy, ac.Policy, err)
			}
			for _, r := range h.Results {
				if r.Applied {
					applied[r.Kind] = true
				}
			}
			for _, k := range faultinject.Kinds() {
				if k == faultinject.ShedComplete && ac.Policy != fpga.AdmitShed {
					continue // only the shed policy produces shed tasks
				}
				if !applied[k] {
					t.Errorf("%v/%v: fault kind %v never found a target", policy, ac.Policy, k)
				}
			}
			if _, err := h.Sched.Schedule().Simulate(); err != nil {
				t.Fatalf("%v/%v: final schedule: %v", policy, ac.Policy, err)
			}
		}
	}
}

// TestKindStrings pins the kind names used in reports.
func TestKindStrings(t *testing.T) {
	for _, k := range faultinject.Kinds() {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("kind %d has no name (%q)", int(k), s)
		}
	}
	if s := faultinject.Kind(99).String(); s != "Kind(99)" {
		t.Errorf("out-of-range kind prints %q", s)
	}
}
