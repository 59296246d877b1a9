package fpga

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Batched submission.
//
// A service shard draining a request queue submits tasks hundreds at a
// time. SubmitBatch sorts the batch into (release, index) order once,
// grows the per-task state slices once, and then places every spec through
// the same submit path as Submit and SubmitWithLifetime — one event-queue
// advance and one run-list window search per task, no batch-only shortcut.
//
// Equivalence contract: SubmitBatch(specs) leaves the scheduler in a state
// byte-identical (per Snapshot) to calling Submit/SubmitWithLifetime for
// the same specs one at a time in (release, index) order, skipping
// submissions refused by admission control — including every reject and
// shed outcome along the way. TestSubmitBatchEquivalence and
// FuzzSubmitBatch enforce this.

// TaskSpec describes one submission of a batch. Actual == 0 (the zero
// value) submits by declared duration only, exactly like Submit; a
// positive Actual registers the lifetime, exactly like SubmitWithLifetime.
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
// returns the placed tasks in that submission order. Submissions refused
// by admission control (errors matching ErrRejected) are skipped, visible
// in Load().Rejected and ShedIDs() just as for sequential submission. Any
// other error aborts the batch at the offending spec: earlier placements
// stay (identical to a sequential loop stopping at the first hard error)
// and the tasks placed so far are returned alongside the error.
func (o *OnlineScheduler) SubmitBatch(specs []TaskSpec) ([]Task, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	// The sort key must be total: a non-finite release would make the order
	// (and therefore which spec's error surfaces) depend on sort internals.
	// submit would reject it anyway, so reject it up front, by input index.
	for i := range specs {
		if r := specs[i].Release; math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("%w: batch spec %d (task %d) has non-finite release %g",
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
	o.grow(len(specs))
	placed := make([]Task, 0, len(specs))
	for _, oi := range order {
		sp := &specs[oi]
		var t Task
		var err error
		if sp.Actual != 0 {
			t, err = o.SubmitWithLifetime(sp.ID, sp.Name, sp.Cols, sp.Duration, sp.Actual, sp.Release)
		} else {
			t, err = o.Submit(sp.ID, sp.Name, sp.Cols, sp.Duration, sp.Release)
		}
		if err != nil {
			if errors.Is(err, ErrRejected) {
				continue
			}
			return placed, err
		}
		placed = append(placed, t)
	}
	return placed, nil
}

// grow pre-extends the per-task state for n upcoming submissions so the
// batch loop appends without reallocating.
func (o *OnlineScheduler) grow(n int) {
	o.tasks = slices.Grow(o.tasks, n)
	o.done = slices.Grow(o.done, n)
	o.shed = slices.Grow(o.shed, n)
	o.started = slices.Grow(o.started, n)
	o.actual = slices.Grow(o.actual, n)
	if o.policy == ReclaimCompact {
		o.taskNodes = slices.Grow(o.taskNodes, n)
		o.inCand = slices.Grow(o.inCand, n)
	}
}
