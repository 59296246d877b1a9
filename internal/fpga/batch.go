package fpga

import (
	"fmt"
	"math"
	"slices"
)

// Batched submission.
//
// A service shard draining a request queue submits tasks hundreds at a
// time. SubmitBatch sorts the batch into (release, index) order once and
// then places every spec through the same submit path as Submit — one
// event-queue advance and one run-list window search per task, no
// batch-only shortcut.
//
// Equivalence contract: SubmitBatch(specs) leaves the scheduler in a state
// byte-identical (per Snapshot) to submitting the same specs one at a time
// in (release, index) order, with Submit or, for a spec with a lifetime,
// the tests' sequential SubmitWithLifetime, skipping submissions refused
// by admission control — including every reject and shed outcome along
// the way. TestSubmitBatchEquivalence and FuzzSubmitBatch enforce this.

// TaskSpec describes one submission of a batch. Actual == 0 (the zero
// value) submits by declared duration only, exactly like Submit; a
// positive Actual registers the lifetime (0 < Actual <= Duration), which
// AdvanceTo then completes the task by.
type TaskSpec struct {
	ID       int
	Name     string
	Cols     int
	Duration float64
	Actual   float64 // 0 = no registered lifetime
	Release  float64
}

// SubmitBatch submits the specs in (Release, index) order — the order a
// caller draining a time-ordered stream would use with Submit — and
// appends the placed tasks to dst in that submission order, returning the
// extended slice. A caller that passes a reused buffer (buf[:0]) places a
// batch without allocating its result. Submissions refused by admission
// control are skipped without allocating, visible in Load().Rejected and
// the snapshot's ShedIDs just as for sequential submission. Any
// other error aborts the batch at the offending spec: earlier placements
// stay (identical to a sequential loop stopping at the first hard error)
// and dst with the tasks placed so far is returned alongside the error.
func (o *OnlineScheduler) SubmitBatch(dst []Task, specs []TaskSpec) ([]Task, error) {
	// The sort key must be total: a non-finite release would make the order
	// (and therefore which spec's error surfaces) depend on sort internals.
	// submit would reject it anyway, so reject it up front, by input index.
	for i := range specs {
		if r := specs[i].Release; math.IsNaN(r) || math.IsInf(r, 0) {
			return dst, fmt.Errorf("%w: batch spec %d (task %d) has non-finite release %g",
				ErrNonFinite, i, specs[i].ID, r)
		}
	}
	order := o.batchOrder[:0]
	for i := range specs {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case specs[a].Release < specs[b].Release:
			return -1
		case specs[a].Release > specs[b].Release:
			return 1
		default:
			return int(a - b)
		}
	})
	o.batchOrder = order
	for _, oi := range order {
		sp := &specs[oi]
		var t Task
		var err error
		if sp.Actual != 0 {
			t, err = o.submitLifetime(sp.ID, sp.Name, sp.Cols, sp.Duration, sp.Actual, sp.Release)
		} else {
			t, err = o.submit(sp.ID, sp.Name, sp.Cols, sp.Duration, math.NaN(), sp.Release)
		}
		if err == errRefused {
			continue
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, t)
	}
	return dst, nil
}
