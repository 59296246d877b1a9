// Package faultinject hardens the online scheduler against malformed
// event streams and crashes: it wraps a live fpga.OnlineScheduler, crafts
// faults from the scheduler's own state (duplicate completions,
// completions for unknown or shed IDs, out-of-order timestamps, NaN/Inf
// payloads, invalid geometry) and asserts two properties after every
// injection — the engine returned the documented typed error for the fault
// class (errors.Is against the fpga sentinels), and the engine state is
// bit-identical to before the fault (no partial mutation leaked). Crash
// points serialize the scheduler through its JSON snapshot and swap in the
// restored instance, which must behave identically from then on.
//
// State intactness is checked through fpga.Snapshot, which is canonical:
// two schedulers in equivalent states serialize identically regardless of
// internal heap layout, so a byte comparison of snapshots is a complete
// state comparison. The companion property test against the brute-force
// reference engine lives in internal/fpga (fault_test.go), next to the
// reference it needs.
package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"strippack/internal/fpga"
)

// Kind enumerates the fault classes the harness can inject. Each crafts a
// malformed operation from the scheduler's live state; a kind with no
// eligible target in the current state (e.g. DuplicateComplete before
// anything completed) is skipped.
type Kind int

const (
	// DuplicateComplete completes an already-completed task again
	// (expects fpga.ErrAlreadyCompleted).
	DuplicateComplete Kind = iota
	// UnknownComplete completes an ID that was never submitted
	// (fpga.ErrUnknownTask).
	UnknownComplete
	// ShedComplete completes a task admission control evicted
	// (fpga.ErrShedTask).
	ShedComplete
	// PastTimestamp completes with a timestamp behind the scheduler clock
	// — an out-of-order event (fpga.ErrTimeRegression).
	PastTimestamp
	// EarlyComplete completes a live task at its start (completions must
	// be strictly after it; fpga.ErrBadCompletionTime).
	EarlyComplete
	// LateComplete completes a live task after its declared end
	// (fpga.ErrBadCompletionTime).
	LateComplete
	// NaNDuration submits a NaN duration (fpga.ErrNonFinite).
	NaNDuration
	// InfRelease submits a +Inf release (fpga.ErrNonFinite).
	InfRelease
	// NaNCompletion completes at NaN (fpga.ErrNonFinite).
	NaNCompletion
	// NegativeDuration submits a negative duration (fpga.ErrInvalidTask).
	NegativeDuration
	// OversizedTask submits a task wider than the device
	// (fpga.ErrInvalidTask).
	OversizedTask
	// BadLifetime registers a lifetime exceeding the declared duration
	// (fpga.ErrInvalidTask).
	BadLifetime
	// DuplicateSubmit reuses a live task ID (fpga.ErrDuplicateID).
	DuplicateSubmit
	numKinds int = iota
)

func (k Kind) String() string {
	names := [...]string{"duplicate-complete", "unknown-complete",
		"shed-complete", "past-timestamp", "early-complete", "late-complete",
		"nan-duration", "inf-release", "nan-completion", "negative-duration",
		"oversized-task", "bad-lifetime", "duplicate-submit"}
	if k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists every injectable fault class.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Result records one injection attempt.
type Result struct {
	Kind    Kind
	Applied bool  // false when the state offered no eligible target
	Err     error // what the engine returned
}

// Harness wraps a scheduler for fault injection. Drive the scheduler
// through Sched (legitimate traffic goes straight to it), then call
// Inject/InjectAll between operations and Crash at crash points.
type Harness struct {
	Sched *fpga.OnlineScheduler
	// Results accumulates every injection attempt, for reporting.
	Results []Result
	spareID int // IDs guaranteed unused by the wrapped stream
}

// New wraps a scheduler. spareID must be below every ID the legitimate
// stream uses (the harness decrements from there for its own malformed
// submissions, so they can never collide with real traffic).
func New(o *fpga.OnlineScheduler, spareID int) *Harness {
	return &Harness{Sched: o, spareID: spareID}
}

func (h *Harness) nextSpare() int {
	h.spareID--
	return h.spareID
}

// Inject crafts and applies one fault of the given kind. It returns nil
// when the engine held up (typed error returned, state untouched) or when
// the current state offers no eligible target; any other outcome — wrong
// or missing error, state mutated by a rejected operation — is returned
// as a harness failure.
func (h *Harness) Inject(k Kind) error {
	snap := h.Sched.Snapshot()
	before, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("faultinject: snapshot: %w", err)
	}
	opErr, want, applied := h.apply(k, snap)
	h.Results = append(h.Results, Result{Kind: k, Applied: applied, Err: opErr})
	if !applied {
		return nil
	}
	if !errors.Is(opErr, want) {
		return fmt.Errorf("faultinject: %v: engine returned %v, want %v", k, opErr, want)
	}
	after, err := json.Marshal(h.Sched.Snapshot())
	if err != nil {
		return fmt.Errorf("faultinject: snapshot: %w", err)
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("faultinject: %v: rejected operation mutated scheduler state", k)
	}
	return nil
}

// apply crafts the fault from the snapshot and runs it, returning the
// engine error, the expected sentinel, and whether a target existed.
func (h *Harness) apply(k Kind, s *fpga.Snapshot) (opErr, want error, applied bool) {
	o := h.Sched
	now := s.Now
	switch k {
	case DuplicateComplete:
		for i, t := range s.Tasks {
			if s.Done[i] {
				return o.Complete(t.ID, now+1), fpga.ErrAlreadyCompleted, true
			}
		}
	case UnknownComplete:
		return o.Complete(h.nextSpare(), now+1), fpga.ErrUnknownTask, true
	case ShedComplete:
		for i, t := range s.Tasks {
			if s.Shed[i] {
				return o.Complete(t.ID, now+1), fpga.ErrShedTask, true
			}
		}
	case PastTimestamp:
		if now > 1 {
			// Any ID: order is checked before identity, as an event
			// transport would.
			for _, t := range s.Tasks {
				return o.Complete(t.ID, now-1), fpga.ErrTimeRegression, true
			}
		}
	case EarlyComplete:
		for i, t := range s.Tasks {
			if !s.Done[i] && !s.Shed[i] && t.Start >= now {
				return o.Complete(t.ID, t.Start), fpga.ErrBadCompletionTime, true
			}
		}
	case LateComplete:
		for i, t := range s.Tasks {
			if !s.Done[i] && !s.Shed[i] {
				at := t.Start + t.Duration + 1
				if at <= now {
					continue
				}
				return o.Complete(t.ID, at), fpga.ErrBadCompletionTime, true
			}
		}
	case NaNDuration:
		_, err := o.Submit(h.nextSpare(), "", 1, math.NaN(), now)
		return err, fpga.ErrNonFinite, true
	case InfRelease:
		_, err := o.Submit(h.nextSpare(), "", 1, 1, math.Inf(1))
		return err, fpga.ErrNonFinite, true
	case NaNCompletion:
		for i, t := range s.Tasks {
			if !s.Done[i] && !s.Shed[i] {
				return o.Complete(t.ID, math.NaN()), fpga.ErrNonFinite, true
			}
		}
	case NegativeDuration:
		_, err := o.Submit(h.nextSpare(), "", 1, -1, now)
		return err, fpga.ErrInvalidTask, true
	case OversizedTask:
		_, err := o.Submit(h.nextSpare(), "", s.Columns+1, 1, now)
		return err, fpga.ErrInvalidTask, true
	case BadLifetime:
		_, err := o.SubmitBatch(nil, []fpga.TaskSpec{{ID: h.nextSpare(), Cols: 1, Duration: 1, Actual: 2, Release: now}})
		return err, fpga.ErrInvalidTask, true
	case DuplicateSubmit:
		for _, t := range s.Tasks {
			_, err := o.Submit(t.ID, "", 1, 1, now)
			return err, fpga.ErrDuplicateID, true
		}
	}
	return nil, nil, false
}

// InjectAll injects every fault kind with an eligible target, stopping at
// the first harness failure.
func (h *Harness) InjectAll() error {
	for _, k := range Kinds() {
		if err := h.Inject(k); err != nil {
			return err
		}
	}
	return nil
}

// Crash simulates a crash-restart: the scheduler is serialized through its
// JSON snapshot, restored, verified to re-serialize identically, and
// swapped in. The wrapped stream continues on the restored instance — any
// divergence from the uninterrupted run shows up in the caller's
// subsequent checks.
func (h *Harness) Crash() error {
	blob, err := json.Marshal(h.Sched.Snapshot())
	if err != nil {
		return fmt.Errorf("faultinject: crash serialize: %w", err)
	}
	var snap fpga.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("faultinject: crash decode: %w", err)
	}
	restored, _, err := fpga.DecodeScheduler(fpga.AppendSnapshot(nil, &snap))
	if err != nil {
		return fmt.Errorf("faultinject: restore: %w", err)
	}
	again, err := json.Marshal(restored.Snapshot())
	if err != nil {
		return fmt.Errorf("faultinject: snapshot: %w", err)
	}
	if !bytes.Equal(blob, again) {
		return fmt.Errorf("faultinject: restored scheduler state differs from crash snapshot")
	}
	h.Sched = restored
	return nil
}
