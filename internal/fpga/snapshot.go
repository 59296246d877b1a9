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
	n := o.tasks.n
	s := &Snapshot{
		Version:          1,
		Columns:          o.device.Columns,
		ReconfigDelay:    o.device.ReconfigDelay,
		Policy:           o.policy,
		Admission:        o.admission,
		Now:              o.now,
		Actual:           make([]float64, n), // non-nil even when empty, like the wire codec's
		Horizon:          o.horizon.values(make([]float64, 0, o.device.Columns)),
		ReclaimedColTime: o.reclaimedColTime,
		CompactPasses:    o.compactPasses,
		TasksMoved:       o.tasksMoved,
		MaxWaiting:       o.maxWaiting,
		Rejected:         o.rejected,
		ShedIDs:          slices.Clone(o.shedIDs),
	}
	if n > 0 { // an idle scheduler's task slices stay nil
		s.Tasks = make([]Task, n)
		s.Done, s.Shed, s.Started = make([]bool, n), make([]bool, n), make([]bool, n)
	}
	// One pass over the records, a chunk at a time.
	names := o.tasks.names
	for ci, c := range o.tasks.chunks {
		base := ci * chunkLen
		recs := c[:min(chunkLen, n-base)]
		tasks, actual := s.Tasks[base:base+len(recs)], s.Actual[base:base+len(recs)]
		done, shed, started := s.Done[base:base+len(recs)], s.Shed[base:base+len(recs)], s.Started[base:base+len(recs)]
		for j := range recs {
			r := &recs[j]
			r.fill(&tasks[j])
			if len(names) > 0 && names[0].idx == base+j {
				tasks[j].Name, names = names[0].name, names[1:]
			}
			done[j] = r.flags&flagDone != 0
			shed[j] = r.flags&flagShed != 0
			started[j] = r.flags&flagStarted != 0
			if math.IsNaN(r.actual) {
				actual[j] = -1
			} else {
				actual[j] = r.actual
			}
		}
	}
	if o.policy == ReclaimCompact {
		s.FixedEnd = slices.Clone(o.fixedEnd)
		// slackQ may hold stale entries for tasks promoted or shed since
		// they were parked; the engine skips those on drain, so they are
		// non-semantic state and are dropped to keep snapshots canonical.
		s.Slack = make([]int, 0, len(o.slackQ))
		for _, idx := range o.slackQ {
			if o.tasks.at(idx).flags&(flagStarted|flagShed) == 0 {
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
	if err := s.validate(); err != nil {
		return nil, err
	}
	d := &Device{Columns: s.Columns, ReconfigDelay: s.ReconfigDelay}
	o, err := NewOnlineSchedulerAdmission(d, s.Policy, s.Admission)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	o.now = s.Now
	// Refill the history through the submit path's probe and add, which
	// also rejects duplicate IDs.
	o.tasks.reserve(len(s.Tasks))
	for i, t := range s.Tasks {
		slot, dup := o.tasks.probe(t.ID)
		if dup >= 0 {
			return nil, fmt.Errorf("%w: duplicate task ID %d", ErrBadSnapshot, t.ID)
		}
		r := taskRec{id: t.ID, firstCol: int32(t.FirstCol), cols: int32(t.Cols),
			start: t.Start, duration: t.Duration, release: t.Release,
			actual: s.Actual[i], node: -1}
		if r.actual < 0 {
			r.actual = math.NaN()
		}
		if s.Done[i] {
			r.flags |= flagDone
		}
		if s.Shed[i] {
			r.flags |= flagShed
		}
		if s.Started[i] {
			r.flags |= flagStarted
		}
		o.tasks.add(slot, r, t.Name)
	}
	o.horizon.fill(s.Horizon)
	o.reclaimedColTime = s.ReclaimedColTime
	o.compactPasses = s.CompactPasses
	o.tasksMoved = s.TasksMoved
	o.maxWaiting = s.MaxWaiting
	o.rejected = s.Rejected
	o.shedIDs = slices.Clone(s.ShedIDs)
	// Derived state: counters, event queues (live entries only, keyed as
	// startLive and compLive define — pop order is a pure function of the
	// (key, index) set, so dropping the stale entries the original queues
	// may have held changes nothing), and the per-column waiting lists.
	waiting := make([]int, 0)
	for i := range o.tasks.n {
		r := o.tasks.at(i)
		switch {
		case r.flags&flagShed != 0:
			o.sheds++
		case r.flags&flagStarted != 0:
			o.nStarted++
			if r.flags&flagDone != 0 {
				o.completed++
			}
		default:
			waiting = append(waiting, i)
			o.waiting++
			o.startQ.push(r.start-o.device.ReconfigDelay, i)
			if o.admission.Policy == AdmitShed {
				o.waitFIFO = append(o.waitFIFO, i)
			}
		}
		if r.flags&(flagDone|flagShed) == 0 && !math.IsNaN(r.actual) {
			o.compQ.push(r.start+r.actual, i)
		}
	}
	if o.policy == ReclaimCompact {
		o.fixedEnd = slices.Clone(s.FixedEnd)
		o.slackQ = slices.Clone(s.Slack)
		// Rebuild the per-column lists in increasing start order (ties by
		// index — the order the engine maintained).
		slices.SortFunc(waiting, func(a, b int) int {
			switch sa, sb := o.tasks.at(a).start, o.tasks.at(b).start; {
			case sa < sb:
				return -1
			case sa > sb:
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

// validate checks every invariant RestoreScheduler relies on but one:
// duplicate task IDs, which RestoreScheduler finds as it refills the ID
// index.
func (s *Snapshot) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	if s == nil {
		return bad("nil snapshot")
	}
	if s.Version != 1 {
		return bad("unsupported version %d", s.Version)
	}
	if s.Columns < 1 || s.Columns > maxColumns {
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
	for i, t := range s.Tasks {
		if t.Cols < 1 || t.Cols > s.Columns || t.FirstCol < 0 || t.FirstCol > s.Columns-t.Cols {
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
	return nil
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
