package fpga

import (
	"fmt"
	"math"
	"slices"
)

// Snapshot is the complete serializable state of an OnlineScheduler — the
// flat-array form the brute-force reference in churn_test.go validates
// against, which is exactly why it is the serialization model: every field
// is a plain slice or scalar, JSON-round-trippable (encoding/json prints
// float64 shortest-form, which decodes bit-identically), with no pointers
// into the engine.
//
// The derived event queues are deliberately NOT serialized: a heap's
// internal layout depends on insertion history (including the stale
// entries that compaction slides, sheds and completions leave until
// trimQueues filters them), but its pop sequence is a pure function of
// the live (key, index) set, so Restore rebuilds equivalent queues from
// the task state and the scheduler replays identically — the
// crash-restart tests assert byte-identical continuation. Every start
// event is keyed by Start-ReconfigDelay, which the task state holds, so
// the rebuilt keys are the live scheduler's keys bit for bit.
type Snapshot struct {
	// Version guards the format; RestoreScheduler rejects others.
	Version int
	// Device geometry.
	Columns       int
	ReconfigDelay float64
	// Policies.
	Policy    Policy
	Admission AdmissionConfig
	// Now is the scheduler clock.
	Now float64
	// Tasks in submission order (index == task index), including completed
	// (truncated) and shed entries.
	Tasks []Task
	// Per-task flags, parallel to Tasks.
	Done, Shed, Started []bool
	// Actual holds registered lifetimes; -1 means none (NaN is not
	// JSON-serializable, and a valid lifetime is always positive).
	Actual []float64
	// Horizon is the per-column placement horizon (the scheduler's run
	// list, expanded to one value per column).
	Horizon []float64
	// FixedEnd is the per-column started/completed profile and Slack the
	// queue of waiting tasks placed above the compacted profile; both are
	// ReclaimCompact state, empty under other policies.
	FixedEnd []float64 `json:",omitempty"`
	Slack    []int     `json:",omitempty"`
	// Counters.
	ReclaimedColTime float64
	CompactPasses    int
	TasksMoved       int
	MaxWaiting       int
	Rejected         int
	ShedIDs          []int `json:",omitempty"`
}

// Snapshot captures the scheduler's complete state. The returned value
// shares nothing with the engine and is canonical: two schedulers in
// equivalent states produce identical snapshots even when their internal
// heaps hold different stale entries, so snapshots double as the state
// comparison the fault-injection harness uses.
func (o *OnlineScheduler) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:          1,
		Columns:          o.device.Columns,
		ReconfigDelay:    o.device.ReconfigDelay,
		Policy:           o.policy,
		Admission:        o.admission,
		Now:              o.now,
		Tasks:            slices.Clone(o.tasks),
		Done:             slices.Clone(o.done),
		Shed:             slices.Clone(o.shed),
		Started:          slices.Clone(o.started),
		Horizon:          o.horizon.values(make([]float64, 0, o.device.Columns)),
		ReclaimedColTime: o.reclaimedColTime,
		CompactPasses:    o.compactPasses,
		TasksMoved:       o.tasksMoved,
		MaxWaiting:       o.maxWaiting,
		Rejected:         o.rejected,
		ShedIDs:          slices.Clone(o.shedIDs),
	}
	s.Actual = make([]float64, len(o.actual))
	for i, a := range o.actual {
		if math.IsNaN(a) {
			s.Actual[i] = -1
		} else {
			s.Actual[i] = a
		}
	}
	if o.policy == ReclaimCompact {
		s.FixedEnd = slices.Clone(o.fixedEnd)
		// slackQ may hold stale entries for tasks promoted or shed since
		// they were parked; the engine skips those on drain, so they are
		// non-semantic state and are dropped to keep snapshots canonical.
		s.Slack = make([]int, 0, len(o.slackQ))
		for _, idx := range o.slackQ {
			if !o.started[idx] && !o.shed[idx] {
				s.Slack = append(s.Slack, idx)
			}
		}
	}
	return s
}

// RestoreScheduler reconstructs a scheduler from a snapshot. The snapshot
// is validated first (every finite-ness and consistency invariant the
// engine maintains) and rejected with an error matching ErrBadSnapshot on
// any violation, so a corrupted or hand-edited snapshot cannot produce an
// engine that fails later in some far-away placement. The restored
// scheduler continues byte-identically to the one that was snapshotted.
func RestoreScheduler(s *Snapshot) (*OnlineScheduler, error) {
	byID, err := s.validate()
	if err != nil {
		return nil, err
	}
	d := &Device{Columns: s.Columns, ReconfigDelay: s.ReconfigDelay}
	o, err := NewOnlineSchedulerAdmission(d, s.Policy, s.Admission)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	o.byID = byID
	o.now = s.Now
	o.tasks = slices.Clone(s.Tasks)
	o.done = slices.Clone(s.Done)
	o.shed = slices.Clone(s.Shed)
	o.started = slices.Clone(s.Started)
	o.actual = make([]float64, len(s.Actual))
	for i, a := range s.Actual {
		if a < 0 {
			o.actual[i] = math.NaN()
		} else {
			o.actual[i] = a
		}
	}
	o.horizon.fill(s.Horizon)
	o.reclaimedColTime = s.ReclaimedColTime
	o.compactPasses = s.CompactPasses
	o.tasksMoved = s.TasksMoved
	o.maxWaiting = s.MaxWaiting
	o.rejected = s.Rejected
	o.shedIDs = slices.Clone(s.ShedIDs)
	// Derived state (the ID index came from validate): counters, event
	// queues (live entries only, keyed as startLive and compLive define —
	// pop order is a pure function of the (key, index) set, so dropping
	// the stale entries the original queues may have held changes
	// nothing), and the per-column waiting lists.
	waiting := make([]int, 0)
	for i, t := range o.tasks {
		switch {
		case o.shed[i]:
			o.sheds++
		case o.started[i]:
			o.nStarted++
			if o.done[i] {
				o.completed++
			}
		default:
			waiting = append(waiting, i)
			o.waiting++
			o.startQ.push(t.Start-o.device.ReconfigDelay, i)
			if o.admission.Policy == AdmitShed {
				o.waitFIFO = append(o.waitFIFO, i)
			}
		}
		if !o.done[i] && !o.shed[i] && !math.IsNaN(o.actual[i]) {
			o.compQ.push(t.Start+o.actual[i], i)
		}
	}
	if o.policy == ReclaimCompact {
		o.fixedEnd = slices.Clone(s.FixedEnd)
		o.taskNodes = slices.Repeat([]int32{-1}, len(o.tasks))
		o.inCand = make([]bool, len(o.tasks))
		o.slackQ = slices.Clone(s.Slack)
		// Rebuild the per-column lists in increasing start order (ties by
		// index — the order the engine maintained).
		slices.SortFunc(waiting, func(a, b int) int {
			switch {
			case o.tasks[a].Start < o.tasks[b].Start:
				return -1
			case o.tasks[a].Start > o.tasks[b].Start:
				return 1
			default:
				return a - b
			}
		})
		for _, idx := range waiting {
			o.link(idx)
		}
	}
	return o, nil
}

// validate checks every invariant RestoreScheduler relies on and returns
// the task ID -> index map it builds while rejecting duplicate IDs, which
// the restored scheduler adopts as its byID index.
func (s *Snapshot) validate() (map[int]int, error) {
	bad := func(format string, args ...any) (map[int]int, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	if s == nil {
		return bad("nil snapshot")
	}
	if s.Version != 1 {
		return bad("unsupported version %d", s.Version)
	}
	if s.Columns < 1 {
		return bad("%d columns", s.Columns)
	}
	if !finite(s.ReconfigDelay) || s.ReconfigDelay < 0 {
		return bad("reconfig delay %g", s.ReconfigDelay)
	}
	switch s.Policy {
	case NoReclaim, Reclaim, ReclaimCompact:
	default:
		return bad("unknown policy %d", int(s.Policy))
	}
	if err := s.Admission.validate(); err != nil {
		return bad("%v", err)
	}
	if !finite(s.Now) || s.Now < 0 {
		return bad("clock %g", s.Now)
	}
	n := len(s.Tasks)
	if len(s.Done) != n || len(s.Shed) != n || len(s.Started) != n || len(s.Actual) != n {
		return bad("flag slices %d/%d/%d/%d for %d tasks",
			len(s.Done), len(s.Shed), len(s.Started), len(s.Actual), n)
	}
	if len(s.Horizon) != s.Columns {
		return bad("%d horizon values for %d columns", len(s.Horizon), s.Columns)
	}
	for c, v := range s.Horizon {
		if !finite(v) || v < 0 {
			return bad("horizon[%d] = %g", c, v)
		}
	}
	byID := make(map[int]int, n)
	for i, t := range s.Tasks {
		if _, dup := byID[t.ID]; dup {
			return bad("duplicate task ID %d", t.ID)
		}
		byID[t.ID] = i
		if t.Cols < 1 || t.FirstCol < 0 || t.FirstCol+t.Cols > s.Columns {
			return bad("task %d columns [%d, %d) on %d-column device", t.ID, t.FirstCol, t.FirstCol+t.Cols, s.Columns)
		}
		if !finite(t.Start) || !finite(t.Duration) || !finite(t.Release) || t.Duration <= 0 {
			return bad("task %d geometry start=%g duration=%g release=%g", t.ID, t.Start, t.Duration, t.Release)
		}
		if s.Done[i] && !s.Started[i] {
			return bad("task %d done but not started", t.ID)
		}
		if s.Shed[i] && (s.Started[i] || s.Done[i]) {
			return bad("task %d both shed and started", t.ID)
		}
		if a := s.Actual[i]; a != -1 && (!finite(a) || a <= 0) {
			return bad("task %d actual lifetime %g", t.ID, a)
		}
	}
	if s.Policy == ReclaimCompact {
		if len(s.FixedEnd) != s.Columns {
			return bad("%d fixed ends for %d columns", len(s.FixedEnd), s.Columns)
		}
		for c, v := range s.FixedEnd {
			if !finite(v) || v < 0 {
				return bad("fixedEnd[%d] = %g", c, v)
			}
		}
		for _, idx := range s.Slack {
			if idx < 0 || idx >= n {
				return bad("slack entry %d out of range", idx)
			}
			if s.Started[idx] || s.Shed[idx] {
				return bad("slack entry %d is not waiting", idx)
			}
		}
	} else if len(s.FixedEnd) != 0 || len(s.Slack) != 0 {
		return bad("compaction state under policy %v", s.Policy)
	}
	return byID, nil
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
