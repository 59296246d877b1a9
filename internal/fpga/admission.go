package fpga

import "fmt"

// AdmissionPolicy decides what Submit does with a task that would have to
// wait (its occupancy cannot begin at the submission clock) while the
// backlog of waiting tasks is at the configured bound. It is orthogonal to
// the completion Policy: the reclaim policy decides what happens when
// tasks finish early, the admission policy decides what enters the system
// under overload. Past the device's fragmentation-limited capacity
// (~0.75 offered load for uniform widths up to K/2, see DESIGN.md) the
// backlog of an unbounded scheduler grows without bound; the bounded
// policies are what let a long-running daemon survive that regime.
type AdmissionPolicy int

const (
	// AdmitAll admits every valid submission — the historical unbounded
	// behavior. The backlog can grow without bound past saturation.
	AdmitAll AdmissionPolicy = iota
	// AdmitBounded rejects a submission that would have to wait while
	// MaxBacklog tasks are already waiting. The rejected submission
	// returns ErrBacklogFull (which also matches ErrRejected) and leaves
	// every placement untouched.
	AdmitBounded
	// AdmitShed admits the new task but sheds the oldest waiting task
	// (lowest submission index) to make room when the backlog is full.
	// The shed task's reservation is cancelled: under NoReclaim/Reclaim
	// its window is handed back to the placement horizon; under
	// ReclaimCompact the placement horizon stays pessimistic (the
	// anomaly-freedom invariant) and waiting tasks compact down onto the
	// vacated time instead. If no waiting task is left to shed the
	// submission is rejected with ErrBacklogFull.
	AdmitShed
)

func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitAll:
		return "unbounded"
	case AdmitBounded:
		return "reject"
	case AdmitShed:
		return "shed"
	}
	return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
}

// ParseAdmission maps the cmd-line names unbounded/reject/shed to an
// AdmissionPolicy.
func ParseAdmission(s string) (AdmissionPolicy, error) {
	switch s {
	case "unbounded", "none":
		return AdmitAll, nil
	case "reject", "bounded":
		return AdmitBounded, nil
	case "shed":
		return AdmitShed, nil
	}
	return 0, fmt.Errorf("fpga: unknown admission policy %q (want unbounded, reject or shed)", s)
}

// AdmissionConfig configures admission control. MaxBacklog bounds the
// number of waiting tasks (placed, occupancy not begun) and must be >= 1
// for the bounded policies; it is ignored by AdmitAll.
type AdmissionConfig struct {
	Policy     AdmissionPolicy
	MaxBacklog int
}

func (c AdmissionConfig) validate() error {
	switch c.Policy {
	case AdmitAll:
		return nil
	case AdmitBounded, AdmitShed:
		if c.MaxBacklog < 1 {
			return fmt.Errorf("fpga: admission policy %v needs MaxBacklog >= 1, got %d", c.Policy, c.MaxBacklog)
		}
		return nil
	}
	return fmt.Errorf("fpga: unknown admission policy %d", int(c.Policy))
}

// LoadStats is a point-in-time saturation picture of one scheduler, cheap
// enough (O(S) over the horizon's S runs) for callers to poll before every
// submission. Load is the fraction of the promise window that is already
// committed: committed column-time ahead of the clock divided by
// Columns x (Horizon - Now). A Load near 1 with a growing Waiting count is
// the overload signature admission control exists for.
type LoadStats struct {
	// Now is the scheduler clock; Horizon the latest promised column-free
	// time (the makespan of the committed schedule); Window their
	// difference (0 when the device is idle).
	Now, Horizon, Window float64
	// CommittedColTime is sum over columns of max(horizon[c] - Now, 0).
	CommittedColTime float64
	// Load is CommittedColTime / (Columns * Window), in [0, 1]; 0 when
	// the window is empty.
	Load float64
	// Waiting counts placed tasks whose occupancy has not begun (the
	// backlog admission control bounds); Running counts started,
	// uncompleted tasks; Done and Shed are cumulative totals, as is
	// Rejected (submissions refused with ErrBacklogFull).
	Waiting, Running, Done, Shed, Rejected int
	// MaxWaiting is the peak backlog observed so far.
	MaxWaiting int
}

// Load returns the scheduler's current load accounting. Callers can use
// it to observe saturation before submitting — e.g. to back off when Load
// approaches 1 or Waiting approaches the admission bound.
func (o *OnlineScheduler) Load() LoadStats {
	st := LoadStats{
		Now:        o.now,
		Horizon:    o.horizon.maxAll(),
		Waiting:    o.waiting,
		Running:    o.nStarted - o.completed,
		Done:       o.completed,
		Shed:       o.sheds,
		Rejected:   o.rejected,
		MaxWaiting: o.maxWaiting,
	}
	st.CommittedColTime = o.horizon.committedAbove(o.now)
	if st.Horizon > o.now {
		st.Window = st.Horizon - o.now
		st.Load = st.CommittedColTime / (float64(o.device.Columns) * st.Window)
	}
	return st
}

// Admission returns the scheduler's admission configuration.
func (o *OnlineScheduler) Admission() AdmissionConfig { return o.admission }

// Device returns the scheduler's device geometry (a copy).
func (o *OnlineScheduler) Device() Device { return *o.device }

// Policy returns the scheduler's completion policy.
func (o *OnlineScheduler) Policy() Policy { return o.policy }
