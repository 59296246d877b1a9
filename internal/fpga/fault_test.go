package fpga

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestFaultsAgainstReference is the brute-force half of the fault story
// (the snapshot-based harness lives in internal/faultinject, which cannot
// be imported here without a cycle): a random churn stream runs through
// the run-list scheduler and the flat-array reference engine, and
// after every legitimate operation a malformed operation is fired at the
// scheduler. Each must come back with its typed error, and compareState
// then verifies the complete engine state — placements, horizons, runs,
// makespan — still matches the reference, proving the rejected operation
// mutated nothing.
func TestFaultsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	for trial := 0; trial < 40; trial++ {
		K := 1 + rng.Intn(12)
		d := &Device{Columns: K}
		if rng.Intn(2) == 0 {
			d.ReconfigDelay = 0.25
		}
		policy := Policy(rng.Intn(3))
		o := NewOnlineSchedulerPolicy(d, policy)
		e := newRefEngine(K, d.ReconfigDelay, policy)
		release := 0.0
		nextID := 0
		q := func() float64 { return 0.25 * float64(1+rng.Intn(8)) }
		// Each injector crafts a malformed op from live state and returns
		// the engine's error plus the expected sentinel; ok=false when the
		// state offers no target.
		injectors := []func() (err, want error, ok bool){
			func() (error, error, bool) { // NaN duration
				_, err := o.Submit(-1, "", 1, math.NaN(), release)
				return err, ErrNonFinite, true
			},
			func() (error, error, bool) { // Inf release
				_, err := o.Submit(-1, "", 1, 1, math.Inf(-1))
				return err, ErrNonFinite, true
			},
			func() (error, error, bool) { // oversized
				_, err := o.Submit(-1, "", K+1, 1, release)
				return err, ErrInvalidTask, true
			},
			func() (error, error, bool) { // lifetime > duration
				_, err := o.SubmitWithLifetime(-1, "", 1, 1, 1.5, release)
				return err, ErrInvalidTask, true
			},
			func() (error, error, bool) { // duplicate ID
				if nextID == 0 {
					return nil, nil, false
				}
				_, err := o.Submit(rng.Intn(nextID), "", 1, 1, release)
				return err, ErrDuplicateID, true
			},
			func() (error, error, bool) { // unknown completion
				return o.Complete(-7, o.now+1), ErrUnknownTask, true
			},
			func() (error, error, bool) { // NaN completion
				return o.Complete(0, math.NaN()), ErrNonFinite, true
			},
			func() (error, error, bool) { // out-of-order timestamp
				if o.now <= 1 {
					return nil, nil, false
				}
				return o.Complete(0, o.now-1), ErrTimeRegression, true
			},
			func() (error, error, bool) { // duplicate completion
				for i := range o.tasks.n {
					if r := o.tasks.at(i); r.flags&flagDone != 0 {
						return o.Complete(r.id, o.now+1), ErrAlreadyCompleted, true
					}
				}
				return nil, nil, false
			},
			func() (error, error, bool) { // completion after declared end
				for i := range o.tasks.n {
					if r := o.tasks.at(i); r.flags&flagDone == 0 && r.end()+1 > o.now {
						return o.Complete(r.id, r.end()+1), ErrBadCompletionTime, true
					}
				}
				return nil, nil, false
			},
		}
		for step := 0; step < 50; step++ {
			// One legitimate op, mirrored into the reference.
			switch rng.Intn(3) {
			case 0, 1:
				cols := 1 + rng.Intn(K)
				dur := q()
				actual := math.NaN()
				if rng.Intn(2) == 0 {
					actual = dur * float64(1+rng.Intn(4)) / 4
				}
				if rng.Intn(3) == 0 {
					release += q()
				}
				var err error
				if math.IsNaN(actual) {
					_, err = o.Submit(nextID, "", cols, dur, release)
				} else {
					_, err = o.SubmitWithLifetime(nextID, "", cols, dur, actual, release)
				}
				if err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				e.submit(nextID, cols, dur, actual, release)
				nextID++
			default:
				at := e.now + q()
				if err := o.AdvanceTo(at); err != nil {
					t.Fatalf("trial %d step %d: advance: %v", trial, step, err)
				}
				e.advanceTo(at)
			}
			// One fault, which must bounce off with the right sentinel and
			// leave the scheduler matching the reference exactly.
			inj := injectors[rng.Intn(len(injectors))]
			if err, want, ok := inj(); ok {
				if !errors.Is(err, want) {
					t.Fatalf("trial %d step %d: fault returned %v, want %v", trial, step, err, want)
				}
				compareState(t, trial, step, o, e)
			}
		}
		if err := o.Drain(); err != nil {
			t.Fatalf("trial %d: drain: %v", trial, err)
		}
		e.advanceTo(math.Inf(1))
		compareState(t, trial, -1, o, e)
	}
}
