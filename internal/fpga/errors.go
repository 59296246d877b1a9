package fpga

import (
	"errors"
	"fmt"
)

// Error taxonomy of the online scheduler. Every rejection the engine can
// produce wraps one of these sentinels, so callers — the churn driver, the
// fault-injection harness (internal/faultinject), a service wrapping the
// scheduler — can classify failures with errors.Is instead of string
// matching. The taxonomy is documented in DESIGN.md.
var (
	// ErrRejected is the umbrella for admission-control refusals: a
	// submission that was valid but not admitted. ErrBacklogFull wraps it.
	ErrRejected = errors.New("fpga: submission rejected by admission control")

	// ErrBacklogFull is returned by Submit when the
	// admission policy bounds the waiting queue and the bound is reached
	// (AdmitBounded always; AdmitShed when there is no waiting task left
	// to shed). errors.Is(err, ErrRejected) also holds.
	ErrBacklogFull = errors.New("fpga: backlog full")

	// ErrNonFinite marks a NaN or Inf duration, release, lifetime or
	// completion time. NaN compares false against every bound, so these
	// are rejected explicitly before any range check.
	ErrNonFinite = errors.New("fpga: non-finite value")

	// ErrInvalidTask marks an out-of-range column count, a non-positive
	// duration or lifetime, or a lifetime exceeding the declared duration.
	ErrInvalidTask = errors.New("fpga: invalid task")

	// ErrDuplicateID marks a submission reusing a live task ID.
	ErrDuplicateID = errors.New("fpga: duplicate task ID")

	// ErrUnknownTask marks a completion for an ID never submitted.
	ErrUnknownTask = errors.New("fpga: unknown task")

	// ErrAlreadyCompleted marks a second completion for the same task.
	ErrAlreadyCompleted = errors.New("fpga: task already completed")

	// ErrShedTask marks a completion for a task the admission policy shed
	// from the backlog — it never ran, so it cannot complete.
	ErrShedTask = errors.New("fpga: task was shed from the backlog")

	// ErrTimeRegression marks an event timestamped before the scheduler
	// clock: the event queue is processed in time order and never rewinds.
	ErrTimeRegression = errors.New("fpga: event before scheduler time")

	// ErrBadCompletionTime marks a completion at or before the task's
	// start, or after its declared end.
	ErrBadCompletionTime = errors.New("fpga: completion time outside task window")

	// ErrBadSnapshot marks a snapshot that fails validation on restore.
	ErrBadSnapshot = errors.New("fpga: invalid snapshot")

	// ErrMalformedSnapshot marks snapshot bytes that do not decode:
	// truncated, overlong or holding a count larger than the bytes left.
	ErrMalformedSnapshot = errors.New("fpga: malformed snapshot bytes")
)

// admissionError is an admission refusal. It matches both ErrBacklogFull
// and ErrRejected (every backlog-full refusal is a rejection) and keeps
// the numbers its message reports, so a refusal formats nothing unless
// its text is asked for: the overload path skips most refusals unread.
type admissionError struct{ id, waiting, bound int }

func (e *admissionError) Error() string {
	return fmt.Sprintf("fpga: task %d refused: %d tasks waiting >= backlog bound %d", e.id, e.waiting, e.bound)
}

func (e *admissionError) Is(target error) bool {
	return target == ErrRejected || target == ErrBacklogFull
}
