package fpga

import (
	"fmt"
	"slices"

	"strippack/internal/workload"
)

// ChurnStats summarizes a churn replay (see RunChurn).
type ChurnStats struct {
	// Makespan is the latest actual completion time.
	Makespan float64
	// Utilization is actual busy column-time / (Columns * Makespan).
	Utilization float64
	// MeanWait is the mean of Start - Release over all tasks that ran.
	MeanWait float64
	// ReclaimedColumnTime is the column-time handed back to the pool by
	// early completions (0 under NoReclaim).
	ReclaimedColumnTime float64
	// CompactPasses counts compaction passes that moved at least one task;
	// TasksMoved counts individual slides (both 0 unless ReclaimCompact).
	CompactPasses int
	TasksMoved    int
	// Admitted counts tasks that ran to completion; Rejected counts
	// submissions refused at the admission gate (ErrBacklogFull); Shed
	// counts admitted tasks later evicted from the backlog by AdmitShed.
	// Admitted + Rejected + Shed == len(tasks).
	Admitted, Rejected, Shed int
	// MaxBacklog is the peak number of waiting tasks observed — under a
	// bounded admission policy it never exceeds the configured bound.
	MaxBacklog int
}

// RunChurn replays a churn workload through the online scheduler under the
// given completion policy: tasks are submitted at their release times with
// their declared durations, and each completes (is truncated to its
// lifetime, reclaiming columns per the policy) when its internal
// completion event fires. The replay is a single-threaded discrete-event
// simulation, so results are a pure function of the task list — the
// determinism contract E13 builds on.
//
// The returned schedule holds actual (truncated) durations and is
// re-verified by the discrete-event simulator, so a policy bug that
// double-books a column fails loudly here rather than skewing a table.
func RunChurn(tasks []workload.ChurnTask, d *Device, p Policy) (*Schedule, *ChurnStats, error) {
	return RunChurnAdmission(tasks, d, p, AdmissionConfig{})
}

// RunChurnAdmission is RunChurn under an explicit admission policy:
// submissions refused at the gate are counted and skipped, without
// allocating — the overload regime E14 measures — and tasks shed from the
// backlog are reported in the stats. Any other submission error is still
// fatal.
func RunChurnAdmission(tasks []workload.ChurnTask, d *Device, p Policy, ac AdmissionConfig) (*Schedule, *ChurnStats, error) {
	if len(tasks) == 0 {
		return nil, nil, fmt.Errorf("fpga: empty churn workload")
	}
	// Submission order is release order, ties by index; the scheduler's
	// internal event queue interleaves the completions.
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case tasks[a].Release < tasks[b].Release:
			return -1
		case tasks[a].Release > tasks[b].Release:
			return 1
		default:
			return a - b
		}
	})
	o, err := NewOnlineSchedulerAdmission(d, p, ac)
	if err != nil {
		return nil, nil, err
	}
	for _, id := range order {
		ct := tasks[id]
		if _, err := o.submitLifetime(id, "", ct.Cols, ct.Duration, ct.Lifetime, ct.Release); err != nil && err != errRefused {
			return nil, nil, err
		}
	}
	if err := o.Drain(); err != nil {
		return nil, nil, err
	}
	sched := o.Schedule()
	sim, err := sched.Simulate()
	if err != nil {
		return nil, nil, fmt.Errorf("fpga: churn schedule failed simulation: %w", err)
	}
	ld := o.Load()
	st := &ChurnStats{
		Makespan:            sim.Makespan,
		Utilization:         sim.Utilization,
		ReclaimedColumnTime: o.reclaimedColTime,
		CompactPasses:       o.compactPasses,
		TasksMoved:          o.tasksMoved,
		Admitted:            len(sched.Tasks),
		Rejected:            ld.Rejected,
		Shed:                ld.Shed,
		MaxBacklog:          ld.MaxWaiting,
	}
	// Post-compaction starts are what the schedule records, so MeanWait is
	// computed from it rather than from the submission-time placements.
	if len(sched.Tasks) > 0 {
		var wait float64
		for _, t := range sched.Tasks {
			wait += t.Start - t.Release
		}
		st.MeanWait = wait / float64(len(sched.Tasks))
	}
	return sched, st, nil
}
