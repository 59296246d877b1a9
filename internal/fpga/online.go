package fpga

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"strippack/internal/geom"
)

// Policy selects what the online scheduler does when a task completes
// before its declared end — the OS-level behaviors of the paper's §1
// motivation (see DESIGN.md for the model).
type Policy int

const (
	// NoReclaim ignores early completions for placement purposes: columns
	// stay promised until the declared end (the historical grow-only
	// horizon). Completions still truncate the recorded task, so
	// makespans compare fairly across policies.
	NoReclaim Policy = iota
	// Reclaim opportunistically lowers the horizon of the columns a
	// completing task still owns back to its completion time, so later
	// submissions can use them. Placement decisions change as a result,
	// and — like any greedy list scheduler whose processing times shrink —
	// the mode can suffer Graham-style anomalies: a reclaimed column can
	// reroute a later task into a window that cascades into a *worse*
	// makespan (E13 measures how often).
	Reclaim
	// ReclaimCompact places every task against the pessimistic declared
	// horizon (identical decisions to NoReclaim) and instead slides
	// waiting tasks (placed, occupancy not yet begun) down in time on
	// their own columns whenever a completion reclaims column-time — the
	// paper's compaction scenario. A slide never changes columns and never
	// delays a task, so per-column task order is preserved and every start
	// is at most its NoReclaim counterpart: unlike Reclaim, compaction is
	// anomaly-free by construction and its makespan never exceeds
	// NoReclaim's (see DESIGN.md for the induction).
	ReclaimCompact
)

func (p Policy) String() string {
	switch p {
	case NoReclaim:
		return "none"
	case Reclaim:
		return "reclaim"
	case ReclaimCompact:
		return "compact"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps the cmd-line names none/reclaim/compact to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "none":
		return NoReclaim, nil
	case "reclaim":
		return Reclaim, nil
	case "compact":
		return ReclaimCompact, nil
	}
	return 0, fmt.Errorf("fpga: unknown policy %q (want none, reclaim or compact)", s)
}

// OnlineScheduler is the event-driven scheduler an operating system for a
// reconfigurable platform would run (the paper's §1/§3 motivation, ref
// [23]): tasks become known only at their release times and are placed
// immediately or queued. Placement uses a per-column horizon (the earliest
// time each column becomes free) and chooses, among all contiguous column
// windows wide enough, the one that lets the task start earliest, breaking
// ties by the leftmost window.
//
// The horizon is kept as its maximal constant runs, so a Submit costs O(S)
// in the current run count S instead of the former O(K·cols) full scan —
// see runHorizon. Placements are identical to the scan's. Submit and
// SubmitBatch share one placement path.
//
// Beyond Submit, the scheduler processes completion events: Complete (or a
// lifetime registered with TaskSpec.Actual and driven by AdvanceTo)
// truncates a task to its actual end and, under Reclaim/ReclaimCompact,
// returns its columns to the pool. Time advances monotonically through
// Submit and Complete; decisions for started tasks stay irrevocable, but
// ReclaimCompact may re-place tasks whose occupancy has not begun.
//
// The scheduler also runs admission control (AdmissionConfig): past the
// device's fragmentation-limited capacity the waiting backlog of an
// unbounded scheduler grows without bound, so a long-running deployment
// bounds it — rejecting (AdmitBounded) or shedding the oldest waiting task
// (AdmitShed) once MaxBacklog tasks wait. Load() exposes saturation
// accounting so callers can observe overload before submitting, and
// Snapshot()/RestoreScheduler serialize the full engine state for crash
// recovery (see snapshot.go).
//
// The scheduler is non-clairvoyant: it never uses information about tasks
// not yet released (registered lifetimes are only acted on when their
// completion event fires), making it a fair online baseline for the
// offline APTAS.
type OnlineScheduler struct {
	device *Device
	// horizon holds, per column, the time it becomes free.
	horizon   *runHorizon
	tasks     taskStore // every task submitted, in submission order (store.go)
	policy    Policy
	admission AdmissionConfig

	now    float64
	compQ  taskHeap // registered completions, keyed by Start+actual
	startQ taskHeap // placed, occupancy not begun, keyed by Start-delay

	// Backlog accounting (all policies).
	waiting    int   // placed tasks whose occupancy has not begun
	maxWaiting int   // peak backlog
	nStarted   int   // cumulative promotions to started
	completed  int   // cumulative completions
	sheds      int   // cumulative admission evictions
	rejected   int   // cumulative ErrBacklogFull refusals
	shedIDs    []int // IDs evicted, in eviction order
	waitFIFO   []int // submission-ordered waiting tasks (AdmitShed only; lazily deleted)

	// Compaction state, maintained only when policy == ReclaimCompact.
	fixedEnd []float64 // per column: latest end among started/completed tasks
	cidx     *colIndex // per-column waiting lists in start order
	candQ    taskHeap  // compaction worklist, keyed by Start
	slackQ   []int     // waiting tasks placed above the compacted profile

	// Counters surfaced in ChurnStats.
	reclaimedColTime float64
	compactPasses    int
	tasksMoved       int

	batchOrder []int32 // SubmitBatch sort scratch
}

// NewOnlineScheduler returns a scheduler for the device with the NoReclaim
// policy — the historical grow-only horizon behavior.
func NewOnlineScheduler(d *Device) *OnlineScheduler {
	return NewOnlineSchedulerPolicy(d, NoReclaim)
}

// NewOnlineSchedulerPolicy returns a scheduler with an explicit completion
// policy and unbounded admission. It panics on a device wider than
// math.MaxInt32 columns, the one error NewOnlineSchedulerAdmission can
// then return.
func NewOnlineSchedulerPolicy(d *Device, p Policy) *OnlineScheduler {
	o, err := NewOnlineSchedulerAdmission(d, p, AdmissionConfig{})
	if err != nil {
		panic(err)
	}
	return o
}

// NewOnlineSchedulerAdmission returns a scheduler with explicit completion
// and admission policies. The zero AdmissionConfig is AdmitAll. The device
// may have at most math.MaxInt32 columns.
func NewOnlineSchedulerAdmission(d *Device, p Policy, ac AdmissionConfig) (*OnlineScheduler, error) {
	if err := ac.validate(); err != nil {
		return nil, err
	}
	if err := checkColumns(d.Columns); err != nil {
		return nil, err
	}
	o := &OnlineScheduler{device: d, horizon: newRunHorizon(d.Columns), policy: p, admission: ac}
	if p == ReclaimCompact {
		o.fixedEnd = make([]float64, d.Columns)
		o.cidx = newColIndex(d.Columns)
	}
	return o, nil
}

// Submit places one task (cols contiguous columns for duration time units,
// released at release) and returns the placed Task. For started tasks
// decisions are greedy and irrevocable, as in a real run-time system;
// under ReclaimCompact a task whose occupancy has not begun may later be
// slid to an earlier start on the same columns.
//
// Durations and releases must be finite: NaN compares false against every
// bound, so without explicit guards a NaN duration or release would slip
// past the validation, poison the horizon and corrupt every later
// placement.
//
// Under a bounded admission policy a submission that would have to wait
// while the backlog is at MaxBacklog is refused with an error matching
// ErrBacklogFull (and ErrRejected); AdmitShed instead evicts the oldest
// waiting task to admit the new one.
func (o *OnlineScheduler) Submit(id int, name string, cols int, duration, release float64) (Task, error) {
	t, err := o.submit(id, name, cols, duration, math.NaN(), release)
	return t, o.refusal(id, err)
}

// errRefused is what submit returns for an admission refusal. It is one
// value, so a refusal allocates nothing: SubmitBatch and
// RunChurnAdmission skip it, and only Submit, which hands the refusal to
// its caller, builds its *admissionError (refusal).
var errRefused = errors.New("fpga: admission refusal")

// refusal turns submit's errRefused for task id into the *admissionError
// Submit returns. A refusal changes no backlog, so the waiting count is
// the one the refusal saw. Other errors pass through.
func (o *OnlineScheduler) refusal(id int, err error) error {
	if err == errRefused {
		return &admissionError{id, o.waiting, o.admission.MaxBacklog}
	}
	return err
}

// submitLifetime places a task by its declared duration and registers its
// actual lifetime (0 < actual <= duration): AdvanceTo completes the task
// at Start+actual. This is the churn interface — the lifetime is revealed
// to the placement logic only when the completion event fires, and a task
// that finishes early frees its columns under Reclaim/ReclaimCompact.
// SubmitBatch reaches it through TaskSpec.Actual, and RunChurnAdmission
// directly. An admission refusal returns errRefused.
func (o *OnlineScheduler) submitLifetime(id int, name string, cols int, duration, actual, release float64) (Task, error) {
	if math.IsNaN(actual) || math.IsInf(actual, 0) {
		return Task{}, fmt.Errorf("%w: task %d has non-finite actual lifetime %g", ErrNonFinite, id, actual)
	}
	if actual <= 0 {
		return Task{}, fmt.Errorf("%w: task %d has non-positive actual lifetime %g", ErrInvalidTask, id, actual)
	}
	if actual > duration {
		return Task{}, fmt.Errorf("%w: task %d actual lifetime %g exceeds declared duration %g", ErrInvalidTask, id, actual, duration)
	}
	return o.submit(id, name, cols, duration, actual, release)
}

// startAfter returns the Start of a task whose occupancy (its
// reconfiguration) begins at occupancy: the smallest float64 at or above
// occupancy+delay whose difference with delay does not fall below
// occupancy. The rounded sum alone can come back one ulp short when it
// crosses a power of two, and Simulate, which recovers the occupancy as
// Start-delay, would then see the task overlap its predecessor's column.
// With no delay it returns occupancy.
func startAfter(occupancy, delay float64) float64 {
	s := occupancy + delay
	for s-delay < occupancy {
		s = math.Nextafter(s, math.Inf(1))
	}
	return s
}

// submit is the one placement path. An admission refusal returns
// errRefused.
func (o *OnlineScheduler) submit(id int, name string, cols int, duration, actual, release float64) (Task, error) {
	if cols < 1 || cols > o.device.Columns {
		return Task{}, fmt.Errorf("%w: task %d needs %d of %d columns", ErrInvalidTask, id, cols, o.device.Columns)
	}
	if math.IsNaN(duration) || math.IsInf(duration, 0) {
		return Task{}, fmt.Errorf("%w: task %d has non-finite duration %g", ErrNonFinite, id, duration)
	}
	if duration <= 0 {
		return Task{}, fmt.Errorf("%w: task %d has non-positive duration %g", ErrInvalidTask, id, duration)
	}
	if math.IsNaN(release) || math.IsInf(release, 0) {
		return Task{}, fmt.Errorf("%w: task %d has non-finite release %g", ErrNonFinite, id, release)
	}
	// The one index probe: it finds the duplicate, or the empty slot the
	// task is filed in once placed. Nothing below adds a task before then,
	// and a refusal leaves the slot empty.
	slot, dup := o.tasks.probe(id)
	if dup >= 0 {
		return Task{}, fmt.Errorf("%w: task %d", ErrDuplicateID, id)
	}
	// Submission advances the clock: a task cannot arrive before events
	// already processed, and a placement never starts in the past. (The
	// clamp is placement-neutral for the historical pure-Submit path:
	// horizon values are non-negative, so a sub-zero floor never wins.)
	floor := release
	if floor < o.now {
		floor = o.now
	}
	if err := o.AdvanceTo(floor); err != nil {
		return Task{}, err
	}
	bestStart, bestCol := o.horizon.bestWindow(cols, floor)
	// Admission control: bestStart (pre-delay) is when occupancy would
	// begin. A task that cannot begin now joins the backlog — refuse or
	// make room per the admission policy. The clock advance above is not
	// rolled back (those events were due regardless), but no placement
	// state is touched by a refusal.
	if bestStart > o.now+geom.Eps && o.admission.Policy != AdmitAll && o.waiting >= o.admission.MaxBacklog {
		if o.admission.Policy == AdmitBounded || !o.shedOldest() {
			o.rejected++
			return Task{}, errRefused
		}
		// A task was shed. Under NoReclaim/Reclaim its window returned to
		// the placement horizon, so re-evaluate the placement; under
		// ReclaimCompact the placement horizon is untouched by design.
		if o.policy != ReclaimCompact {
			bestStart, bestCol = o.horizon.bestWindow(cols, floor)
		}
	}
	occupancy := bestStart // when the reconfiguration for this task begins
	r := taskRec{id: id, firstCol: int32(bestCol), cols: int32(cols),
		start: startAfter(occupancy, o.device.ReconfigDelay), duration: duration,
		release: release, actual: actual, node: -1}
	o.horizon.assign(bestCol, bestCol+cols, r.end())
	idx := o.tasks.add(slot, r, name)
	if occupancy <= o.now+geom.Eps {
		o.markStarted(idx) // occupancy begins immediately: irrevocable
	} else {
		o.waiting++
		if o.waiting > o.maxWaiting {
			o.maxWaiting = o.waiting
		}
		// Keyed by Start-delay, not occupancy: startAfter may have stepped
		// Start, and slides and RestoreScheduler key by Start-delay too, so
		// a restored scheduler promotes the task at the same clock.
		o.startQ.push(r.start-o.device.ReconfigDelay, idx)
		if o.admission.Policy == AdmitShed {
			o.waitFIFO = append(o.waitFIFO, idx)
		}
		if o.policy == ReclaimCompact {
			o.linkWaiting(idx)
		}
	}
	if !math.IsNaN(actual) {
		o.compQ.push(r.start+actual, idx)
	}
	o.trimQueues()
	return r.task(name), nil
}

// markStarted marks a task as started: its placement becomes irrevocable
// and, under ReclaimCompact, its declared end joins the per-column fixed
// horizon.
func (o *OnlineScheduler) markStarted(idx int) {
	r := o.tasks.at(idx)
	r.flags |= flagStarted
	o.nStarted++
	if o.policy == ReclaimCompact {
		// Fold the started task's end into the per-column fixed horizon.
		end := r.end()
		for c := r.firstCol; c < r.firstCol+r.cols; c++ {
			if o.fixedEnd[c] < end {
				o.fixedEnd[c] = end
			}
		}
	}
}

// promote moves every queued task whose occupancy begins at or before t
// into the started (irrevocable) state. Entries for started or shed tasks
// are stale (see startLive) and are skipped: a compaction slide pushes a
// fresh entry at a lower key, which pops first and starts the task.
func (o *OnlineScheduler) promote(t float64) {
	for len(o.startQ) > 0 && o.startQ[0].key <= t+geom.Eps {
		_, idx := o.startQ.pop()
		if o.tasks.at(idx).flags&(flagStarted|flagShed) != 0 {
			continue
		}
		o.waiting--
		if o.policy == ReclaimCompact {
			o.unlinkWaiting(idx)
		}
		o.markStarted(idx)
	}
}

// shedOldest evicts the oldest waiting task (lowest submission index) and
// reports whether one was found. Only called under AdmitShed.
func (o *OnlineScheduler) shedOldest() bool {
	for len(o.waitFIFO) > 0 {
		idx := o.waitFIFO[0]
		o.waitFIFO = o.waitFIFO[1:]
		if o.tasks.at(idx).flags&(flagStarted|flagDone|flagShed) != 0 {
			continue // already promoted or evicted; lazily dropped here
		}
		o.shedTask(idx)
		return true
	}
	return false
}

// shedTask cancels a waiting task's reservation. Under NoReclaim/Reclaim
// the window is handed straight back to the placement horizon (value ==
// declared end identifies the columns the shed task still owns — the same
// ownership argument as completion reclaim — and lowering them to the
// window start it was placed at never undercuts an older commitment).
// Under ReclaimCompact the placement horizon stays pessimistic (the
// anomaly-freedom invariant) and the compacted profile drops instead:
// successors on the shed task's columns slide down onto the vacated time.
func (o *OnlineScheduler) shedTask(idx int) {
	r := o.tasks.at(idx)
	r.flags |= flagShed
	o.waiting--
	o.sheds++
	o.shedIDs = append(o.shedIDs, r.id)
	switch o.policy {
	case NoReclaim, Reclaim:
		l := int(r.firstCol)
		o.horizon.free(l, l+int(r.cols), r.end(), r.start-o.device.ReconfigDelay)
	case ReclaimCompact:
		base := r.node
		for n := base; n < base+r.cols; n++ {
			if nx := o.cidx.next[n]; nx >= 0 {
				o.pushCand(int(o.cidx.task[nx]))
			}
		}
		o.unlinkWaiting(idx)
		o.seedSlack()
		o.runCompact()
	}
}

// ShedIDs returns the IDs evicted by the AdmitShed policy so far, in
// eviction order. The returned slice is a copy: handing out the internal
// slice would let a caller overwrite eviction history (or have it mutated
// under them by a later shed's append), corrupting snapshots and stats.
func (o *OnlineScheduler) ShedIDs() []int { return slices.Clone(o.shedIDs) }

// Complete records that the task actually finished at time `at`, with
// Start < at <= declared End and at no earlier than the scheduler clock
// (events are processed in time order). The task's duration is truncated
// to its actual run; under Reclaim/ReclaimCompact the columns it still
// owns are freed at `at`, and under ReclaimCompact waiting tasks are then
// slid down onto the reclaimed time.
func (o *OnlineScheduler) Complete(id int, at float64) error {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("%w: task %d completion at %g", ErrNonFinite, id, at)
	}
	if at < o.now-geom.Eps {
		return fmt.Errorf("%w: task %d completion at %g before scheduler time %g", ErrTimeRegression, id, at, o.now)
	}
	_, idx := o.tasks.probe(id)
	if idx < 0 {
		return fmt.Errorf("%w: completion for task %d", ErrUnknownTask, id)
	}
	r := o.tasks.at(idx)
	if r.flags&flagShed != 0 {
		return fmt.Errorf("%w: task %d", ErrShedTask, id)
	}
	if r.flags&flagDone != 0 {
		return fmt.Errorf("%w: task %d", ErrAlreadyCompleted, id)
	}
	// Validate against the current placement before advancing the clock,
	// so a rejected completion leaves the scheduler untouched. completeAt
	// re-validates, because AdvanceTo may slide the task meanwhile.
	if err := completionWindow(r, at); err != nil {
		return err
	}
	if err := o.AdvanceTo(at); err != nil {
		return err
	}
	if r.flags&flagDone != 0 { // possibly completed by a registered lifetime just now
		return fmt.Errorf("%w: task %d", ErrAlreadyCompleted, id)
	}
	return o.completeAt(idx, at)
}

// completionWindow checks that a completion at `at` falls after the
// task's start and no later than its declared end.
func completionWindow(r *taskRec, at float64) error {
	if at <= r.start {
		return fmt.Errorf("%w: task %d completion at %g not after its start %g", ErrBadCompletionTime, r.id, at, r.start)
	}
	if at > r.end()+geom.Eps {
		return fmt.Errorf("%w: task %d completion at %g after its declared end %g", ErrBadCompletionTime, r.id, at, r.end())
	}
	return nil
}

func (o *OnlineScheduler) completeAt(idx int, at float64) error {
	r := o.tasks.at(idx)
	if err := completionWindow(r, at); err != nil {
		return err
	}
	if at > o.now {
		o.now = at
	}
	r.flags |= flagDone
	o.completed++
	// Fix stragglers with their declared ends before truncating this
	// task, so the reclaim accounting below sees the declared value (and
	// the waiting/started accounting stays exact under every policy).
	o.promote(o.now)
	oldEnd := r.end()
	r.duration = at - r.start
	if at >= oldEnd || o.policy == NoReclaim {
		return nil // on-time completion, or a policy that ignores it
	}
	l, rt := int(r.firstCol), int(r.firstCol+r.cols)
	if o.policy == Reclaim {
		// Opportunistic: hand the columns this task still owns straight
		// back to the placement horizon.
		if freed := o.horizon.free(l, rt, oldEnd, at); freed > 0 {
			o.reclaimedColTime += (oldEnd - at) * float64(freed)
		}
		return nil
	}
	// ReclaimCompact: the placement horizon stays pessimistic (that is
	// what makes the mode anomaly-free); the reclaimed column-time feeds
	// the fixed per-column profile the compaction pass slides onto.
	freed := 0
	for c := l; c < rt; c++ {
		if o.fixedEnd[c] == oldEnd {
			o.fixedEnd[c] = at
			freed++
		}
	}
	o.reclaimedColTime += (oldEnd - at) * float64(freed)
	o.compactRange(l, rt)
	return nil
}

// AdvanceTo processes every registered completion event due at or before t
// (in event-time order, ties by submission index) and advances the
// scheduler clock to t. A non-finite t fires the matching events but
// leaves the clock at the last event processed — the clock itself must
// stay finite or every later submission would be pushed to infinity.
func (o *OnlineScheduler) AdvanceTo(t float64) error {
	for len(o.compQ) > 0 && o.compQ[0].key <= t {
		key, idx := o.compQ.pop()
		if o.tasks.at(idx).flags&(flagDone|flagShed) != 0 {
			// Stale (see compLive): completed manually ahead of its
			// registered event, evicted by admission control, or left by
			// a compaction slide (the slide pushed a fresh entry at the
			// lower key, which popped — and completed the task — first).
			continue
		}
		if err := o.completeAt(idx, key); err != nil {
			return err
		}
	}
	if t > o.now && !math.IsInf(t, 1) {
		o.now = t
	}
	o.promote(o.now)
	return nil
}

// Drain processes every remaining registered completion event, leaving
// the clock at the last completion.
func (o *OnlineScheduler) Drain() error {
	return o.AdvanceTo(math.Inf(1))
}

// Now returns the scheduler clock: the latest event time processed.
func (o *OnlineScheduler) Now() float64 { return o.now }

// Schedule returns the accumulated schedule for simulation/inspection.
// Tasks evicted by admission control never ran and are excluded.
func (o *OnlineScheduler) Schedule() *Schedule {
	tasks := make([]Task, o.tasks.n-o.sheds)
	o.tasks.fillTasks(tasks, flagShed)
	return &Schedule{Device: o.device, Tasks: tasks}
}

// Makespan returns the latest column horizon — the time the last committed
// column is promised free. Under Reclaim policies this can decrease when
// tasks complete early.
func (o *OnlineScheduler) Makespan() float64 {
	return o.horizon.maxAll()
}

// ReclaimStats reports the cumulative reclamation counters: column-time
// handed back to the pool by early completions, compaction passes that
// moved at least one task, and individual task slides. All zero under
// NoReclaim; the last two zero unless the policy is ReclaimCompact. The
// external churn drivers (internal/fleet) aggregate these per shard.
func (o *OnlineScheduler) ReclaimStats() (reclaimedColTime float64, compactPasses, tasksMoved int) {
	return o.reclaimedColTime, o.compactPasses, o.tasksMoved
}

// queueSlack is how many entries a lazily-deleted queue may hold beyond
// twice its live bound before trimQueues filters it, so that a short
// queue is not re-filtered on every submission.
const queueSlack = 64

// trimQueues keeps the lazily-deleted queues within a constant factor of
// their live entries. Under ReclaimCompact the placement horizon stays
// pessimistic, so a slid task's old start and completion keys sit far
// ahead of the clock and would otherwise stay queued until it reached
// them; promotions and sheds leave dead waitFIFO entries likewise. A
// queue longer than twice its live bound plus queueSlack is filtered in
// place: the filter costs O(len), removes more than half the entries
// (amortized O(1) per stale entry) and allocates nothing. Heap pop order
// is a pure function of the live (key, index) set and shedOldest skips
// every entry the filter drops, so no decision changes.
func (o *OnlineScheduler) trimQueues() {
	if len(o.startQ) > 2*o.waiting+queueSlack {
		o.startQ.filter(o.startLive)
	}
	if len(o.compQ) > 2*(o.waiting+o.nStarted-o.completed)+queueSlack {
		o.compQ.filter(o.compLive)
	}
	if len(o.waitFIFO) > 2*o.waiting+queueSlack {
		live := o.waitFIFO[:0]
		for _, idx := range o.waitFIFO {
			if o.tasks.at(idx).flags&(flagStarted|flagDone|flagShed) == 0 {
				live = append(live, idx)
			}
		}
		o.waitFIFO = live
	}
}

// startLive reports whether a startQ entry is live: its task still waits
// and the entry carries the task's current key. A slide lowers Start by
// more than Eps, so every other entry of a waiting task has a larger key
// and pops after the live one has started the task.
func (o *OnlineScheduler) startLive(e taskEvent) bool {
	r := o.tasks.at(e.idx)
	return r.flags&(flagStarted|flagShed) == 0 && e.key == r.start-o.device.ReconfigDelay
}

// compLive reports whether a compQ entry is live: its task has neither
// completed nor been shed and the entry carries the task's current key.
func (o *OnlineScheduler) compLive(e taskEvent) bool {
	r := o.tasks.at(e.idx)
	return r.flags&(flagDone|flagShed) == 0 && e.key == r.start+r.actual
}

// taskHeap is a binary min-heap of (key, task index) pairs ordered by key,
// ties by submission index — the deterministic event order of the
// scheduler.
type taskHeap []taskEvent

type taskEvent struct {
	key float64
	idx int
}

func (h taskHeap) less(a, b int) bool {
	return h[a].key < h[b].key || (h[a].key == h[b].key && h[a].idx < h[b].idx)
}

func (h *taskHeap) push(key float64, idx int) {
	*h = append(*h, taskEvent{key, idx})
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *taskHeap) pop() (float64, int) {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	h.down(0)
	return top.key, top.idx
}

// filter keeps the entries live accepts, in place, and restores heap
// order bottom-up.
func (h *taskHeap) filter(live func(taskEvent) bool) {
	kept := (*h)[:0]
	for _, e := range *h {
		if live(e) {
			kept = append(kept, e)
		}
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.down(i)
	}
	*h = kept
}

func (h taskHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// RunOnline replays a release-time instance through the online scheduler in
// release order (ties by index) on a K-column device and returns the
// schedule. Widths must be multiples of width/K (use QuantizeInstance
// first).
func RunOnline(in *geom.Instance, d *Device) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.Prec) > 0 {
		return nil, fmt.Errorf("fpga: online scheduler does not handle precedence edges")
	}
	if err := checkColumns(d.Columns); err != nil {
		return nil, err
	}
	col := in.StripWidth() / float64(d.Columns)
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	// Index tie-break keeps the reflection-free sort stable (release order,
	// ties by id, as documented).
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case in.Rects[a].Release < in.Rects[b].Release:
			return -1
		case in.Rects[a].Release > in.Rects[b].Release:
			return 1
		default:
			return a - b
		}
	})
	o := NewOnlineScheduler(d)
	o.tasks.reserve(in.N()) // the replay submits exactly n tasks
	for _, id := range order {
		r := in.Rects[id]
		cols := int(r.W/col + 0.5)
		if cols < 1 || absf(r.W-float64(cols)*col) > 1e-6 {
			return nil, fmt.Errorf("fpga: rect %d width %g not column-aligned", id, r.W)
		}
		if _, err := o.Submit(id, r.Name, cols, r.H, r.Release); err != nil {
			return nil, err
		}
	}
	return o.Schedule(), nil
}

// ToPacking converts a schedule back into a packing of the instance (the
// inverse of FromPacking), so online schedules can be validated with the
// geometric validator and compared with offline packings. Every rect must
// be covered by exactly one task: duplicate task IDs would silently
// overwrite a placement and leave another rect sitting unvalidated at the
// origin, so they are rejected.
func (s *Schedule) ToPacking(in *geom.Instance) (*geom.Packing, error) {
	if len(s.Tasks) != in.N() {
		return nil, fmt.Errorf("fpga: %d tasks for %d rects", len(s.Tasks), in.N())
	}
	col := in.StripWidth() / float64(s.Device.Columns)
	p := geom.NewPacking(in)
	seen := make([]bool, in.N())
	for _, t := range s.Tasks {
		if t.ID < 0 || t.ID >= in.N() {
			return nil, fmt.Errorf("fpga: task ID %d out of range", t.ID)
		}
		if seen[t.ID] {
			return nil, fmt.Errorf("fpga: duplicate task ID %d in schedule", t.ID)
		}
		seen[t.ID] = true
		p.Set(t.ID, float64(t.FirstCol)*col, t.Start)
	}
	return p, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
