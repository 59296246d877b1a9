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
		Version:          snapshotVersion,
		Columns:          o.device.Columns,
		ReconfigDelay:    o.device.ReconfigDelay,
		Policy:           o.policy,
		Admission:        o.admission,
		Now:              o.now,
		Actual:           make([]float64, n), // non-nil even when empty, like DecodeSnapshot's
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
	for ci := range o.tasks.chunks {
		base := ci * chunkLen
		recs := o.tasks.chunk(ci)
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
		s.Slack = make([]int, 0, len(o.slackQ))
		for _, idx := range o.slackQ {
			if o.slackLive(idx) {
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
//
// It restores through the snapshot's bytes, with DecodeScheduler, so a
// Snapshot and its bytes are held to the same rules by the same code.
func RestoreScheduler(s *Snapshot) (*OnlineScheduler, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrBadSnapshot)
	}
	o, _, err := DecodeScheduler(AppendSnapshot(nil, s))
	return o, err
}

// rebuild derives what a snapshot leaves out from the restored records:
// the counters, the event queues (live entries only, keyed as startLive
// and compLive define — pop order is a pure function of the (key, index)
// set, so dropping the stale entries the original queues may have held
// changes nothing), the shed FIFO and the per-column waiting lists.
func (o *OnlineScheduler) rebuild() {
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
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
