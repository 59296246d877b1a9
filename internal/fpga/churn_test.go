package fpga

import (
	"math"
	"math/rand"
	"testing"

	"strippack/internal/geom"
	"strippack/internal/workload"
)

// refEngine is a brute-force O(K·cols) re-implementation of the online
// scheduler's full Submit/Complete semantics over flat arrays: window
// scans instead of the run list, linear promotion scans instead of the
// start heap, a full-array rebuild for compaction, and admission control
// by scanning for the waiting tasks. The production scheduler must
// reproduce its placements, truncations, slides, sheds and horizons bit
// for bit.
type refEngine struct {
	K         int
	delay     float64
	policy    Policy
	admission AdmissionConfig
	now       float64

	horizon  []float64
	fixedEnd []float64

	tasks []refTask
}

type refTask struct {
	id       int
	firstCol int
	cols     int
	start    float64
	duration float64
	release  float64
	actual   float64 // NaN = no registered lifetime
	started  bool
	done     bool
	shed     bool
}

func newRefEngine(K int, delay float64, p Policy) *refEngine {
	return &refEngine{K: K, delay: delay, policy: p,
		horizon: make([]float64, K), fixedEnd: make([]float64, K)}
}

// submit places a task and returns its column and start, or column -1
// when admission control refuses it.
func (e *refEngine) submit(id, cols int, duration, actual, release float64) (int, float64) {
	floor := release
	if floor < e.now {
		floor = e.now
	}
	e.advanceTo(floor)
	occupancy, bestCol := e.bestWindow(cols, floor)
	if occupancy > e.now+geom.Eps && e.admission.Policy != AdmitAll && e.waiting() >= e.admission.MaxBacklog {
		if e.admission.Policy == AdmitBounded || !e.shedOldest() {
			return -1, math.NaN()
		}
		if e.policy != ReclaimCompact {
			occupancy, bestCol = e.bestWindow(cols, floor)
		}
	}
	bestStart := startAfter(occupancy, e.delay)
	t := refTask{id: id, firstCol: bestCol, cols: cols, start: bestStart,
		duration: duration, release: release, actual: actual}
	end := bestStart + duration
	for k := bestCol; k < bestCol+cols; k++ {
		e.horizon[k] = end
	}
	if occupancy <= e.now+geom.Eps {
		t.started = true
		e.fixEnds(&t)
	}
	e.tasks = append(e.tasks, t)
	return bestCol, bestStart
}

// bestWindow scans every window for the earliest occupancy at or after
// floor, ties to the leftmost.
func (e *refEngine) bestWindow(cols int, floor float64) (float64, int) {
	bestStart, bestCol := -1.0, -1
	for c := 0; c+cols <= e.K; c++ {
		start := floor
		for k := c; k < c+cols; k++ {
			if e.horizon[k] > start {
				start = e.horizon[k]
			}
		}
		if bestCol == -1 || start < bestStart-geom.Eps {
			bestStart, bestCol = start, c
		}
	}
	return bestStart, bestCol
}

func (e *refEngine) waiting() int {
	n := 0
	for i := range e.tasks {
		if !e.tasks[i].started && !e.tasks[i].shed {
			n++
		}
	}
	return n
}

// shedOldest evicts the waiting task with the lowest index: its window
// goes back to the placement horizon, or under ReclaimCompact its
// successors compact down onto the vacated time.
func (e *refEngine) shedOldest() bool {
	for i := range e.tasks {
		t := &e.tasks[i]
		if t.started || t.shed {
			continue
		}
		t.shed = true
		if e.policy == ReclaimCompact {
			e.compact()
			return true
		}
		for c := t.firstCol; c < t.firstCol+t.cols; c++ {
			if e.horizon[c] == t.start+t.duration {
				e.horizon[c] = t.start - e.delay
			}
		}
		return true
	}
	return false
}

func (e *refEngine) fixEnds(t *refTask) {
	for c := t.firstCol; c < t.firstCol+t.cols; c++ {
		if e.fixedEnd[c] < t.start+t.duration {
			e.fixedEnd[c] = t.start + t.duration
		}
	}
}

func (e *refEngine) promote(at float64) {
	for i := range e.tasks {
		t := &e.tasks[i]
		if !t.started && !t.shed && t.start-e.delay <= at+geom.Eps {
			t.started = true
			e.fixEnds(t)
		}
	}
}

// advanceTo fires registered completion events due at or before `at`,
// always the (key, index)-minimal one first, then promotes. Like the
// scheduler, an infinite `at` leaves the clock at the last event.
func (e *refEngine) advanceTo(at float64) {
	for {
		best := -1
		bestKey := 0.0
		for i := range e.tasks {
			t := &e.tasks[i]
			if t.done || t.shed || math.IsNaN(t.actual) {
				continue
			}
			key := t.start + t.actual
			if key <= at && (best == -1 || key < bestKey) {
				best, bestKey = i, key
			}
		}
		if best == -1 {
			break
		}
		e.completeAt(best, bestKey)
	}
	if at > e.now && !math.IsInf(at, 1) {
		e.now = at
	}
	e.promote(e.now)
}

func (e *refEngine) completeAt(idx int, at float64) {
	t := &e.tasks[idx]
	if at > e.now {
		e.now = at
	}
	t.done = true
	e.promote(e.now)
	oldEnd := t.start + t.duration
	t.duration = at - t.start
	if at >= oldEnd || e.policy == NoReclaim {
		return
	}
	if e.policy == Reclaim {
		for c := t.firstCol; c < t.firstCol+t.cols; c++ {
			if e.horizon[c] == oldEnd {
				e.horizon[c] = at
			}
		}
		return
	}
	for c := t.firstCol; c < t.firstCol+t.cols; c++ {
		if e.fixedEnd[c] == oldEnd {
			e.fixedEnd[c] = at
		}
	}
	e.compact()
}

func (e *refEngine) complete(idx int, at float64) {
	e.advanceTo(at)
	e.completeAt(idx, at)
}

func (e *refEngine) compact() {
	var waiting []int
	for i := range e.tasks {
		if !e.tasks[i].started && !e.tasks[i].done && !e.tasks[i].shed {
			waiting = append(waiting, i)
		}
	}
	if len(waiting) == 0 {
		return
	}
	// Increasing start order, ties by submission index (selection by min).
	for i := 0; i < len(waiting); i++ {
		for j := i + 1; j < len(waiting); j++ {
			a, b := &e.tasks[waiting[i]], &e.tasks[waiting[j]]
			if b.start < a.start || (b.start == a.start && waiting[j] < waiting[i]) {
				waiting[i], waiting[j] = waiting[j], waiting[i]
			}
		}
	}
	// The placement horizon is deliberately NOT rebuilt: under
	// ReclaimCompact submissions keep seeing the pessimistic declared
	// horizon (the anomaly-freedom argument), so slides only move tasks.
	cur := append([]float64(nil), e.fixedEnd...)
	for _, idx := range waiting {
		t := &e.tasks[idx]
		floor := t.release
		if floor < e.now {
			floor = e.now
		}
		for c := t.firstCol; c < t.firstCol+t.cols; c++ {
			if cur[c] > floor {
				floor = cur[c]
			}
		}
		if s := startAfter(floor, e.delay); s < t.start-geom.Eps {
			t.start = s
		}
		for c := t.firstCol; c < t.firstCol+t.cols; c++ {
			cur[c] = t.start + t.duration
		}
	}
}

// compareState asserts the production scheduler and the reference agree on
// every task placement, every column horizon, the run list and the
// makespan.
func compareState(t *testing.T, trial, step int, o *OnlineScheduler, e *refEngine) {
	t.Helper()
	if o.tasks.n != len(e.tasks) {
		t.Fatalf("trial %d step %d: %d tasks vs %d", trial, step, o.tasks.n, len(e.tasks))
	}
	for i := range o.tasks.n {
		got, want := o.tasks.at(i), e.tasks[i]
		if int(got.firstCol) != want.firstCol || got.start != want.start || got.duration != want.duration {
			t.Fatalf("trial %d step %d task %d: (col %d start %g dur %g) vs reference (col %d start %g dur %g)",
				trial, step, got.id, got.firstCol, got.start, got.duration,
				want.firstCol, want.start, want.duration)
		}
		started, done, shed := got.flags&flagStarted != 0, got.flags&flagDone != 0, got.flags&flagShed != 0
		if started != want.started || done != want.done || shed != want.shed {
			t.Fatalf("trial %d step %d task %d: started/done/shed %v/%v/%v vs reference %v/%v/%v",
				trial, step, got.id, started, done, shed, want.started, want.done, want.shed)
		}
	}
	for c, got := range o.horizon.values(nil) {
		if got != e.horizon[c] {
			t.Fatalf("trial %d step %d: horizon[%d] = %g, want %g", trial, step, c, got, e.horizon[c])
		}
	}
	checkRuns(t, o.horizon, e.horizon)
	want := 0.0
	for _, h := range e.horizon {
		if h > want {
			want = h
		}
	}
	if got := o.Makespan(); got != want {
		t.Fatalf("trial %d step %d: makespan %g, want %g", trial, step, got, want)
	}
}

// TestChurnMatchesReference drives random Submit/Complete interleavings —
// quantized times so exact ties (the Eps tie-break) occur, occasional
// width == K tasks, reconfiguration delays, all three policies — through
// the run-list scheduler and the brute-force reference, comparing the
// complete state after every operation.
func TestChurnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 150; trial++ {
		K := 1 + rng.Intn(24)
		d := &Device{Columns: K}
		if rng.Intn(2) == 0 {
			d.ReconfigDelay = 0.25
		}
		policy := Policy(rng.Intn(3))
		o := NewOnlineSchedulerPolicy(d, policy)
		e := newRefEngine(K, d.ReconfigDelay, policy)
		release := 0.0
		nextID := 0
		q := func() float64 { return 0.25 * float64(1+rng.Intn(8)) } // quantized: exact ties
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0, 1: // submit (sometimes with a registered lifetime)
				cols := 1 + rng.Intn(K)
				if rng.Intn(8) == 0 {
					cols = K // full-width task
				}
				dur := q()
				actual := math.NaN()
				if rng.Intn(2) == 0 {
					actual = dur * float64(1+rng.Intn(4)) / 4 // ties incl. actual == dur
				}
				if rng.Intn(3) == 0 {
					release += q()
				}
				var task Task
				var err error
				if math.IsNaN(actual) {
					task, err = o.Submit(nextID, "", cols, dur, release)
				} else {
					task, err = o.SubmitWithLifetime(nextID, "", cols, dur, actual, release)
				}
				if err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				wc, ws := e.submit(nextID, cols, dur, actual, release)
				if task.FirstCol != wc || task.Start != ws {
					t.Fatalf("trial %d step %d: placed (%d, %g) vs reference (%d, %g)",
						trial, step, task.FirstCol, task.Start, wc, ws)
				}
				nextID++
			case 2: // manual complete of a random eligible task
				var cand []int
				for i := range e.tasks {
					rt := &e.tasks[i]
					if rt.done || !math.IsNaN(rt.actual) || rt.start+rt.duration <= e.now {
						continue
					}
					// Under ReclaimCompact a waiting task can slide while
					// AdvanceTo runs, invalidating a pre-computed `at`;
					// complete only started (immovable) tasks there.
					if policy == ReclaimCompact && !rt.started {
						continue
					}
					cand = append(cand, i)
				}
				if len(cand) == 0 {
					continue
				}
				idx := cand[rng.Intn(len(cand))]
				rt := &e.tasks[idx]
				lo := rt.start
				if e.now > lo {
					lo = e.now
				}
				at := lo + (rt.start+rt.duration-lo)*float64(1+rng.Intn(4))/4
				if at <= rt.start {
					continue
				}
				if err := o.Complete(rt.id, at); err != nil {
					t.Fatalf("trial %d step %d: complete: %v", trial, step, err)
				}
				e.complete(idx, at)
			default: // advance the clock, firing due events
				at := e.now + q()
				if err := o.AdvanceTo(at); err != nil {
					t.Fatalf("trial %d step %d: advance: %v", trial, step, err)
				}
				e.advanceTo(at)
			}
			compareState(t, trial, step, o, e)
		}
		if err := o.Drain(); err != nil {
			t.Fatalf("trial %d: drain: %v", trial, err)
		}
		e.advanceTo(math.Inf(1))
		compareState(t, trial, -1, o, e)
		// The final schedule must also survive the discrete-event simulator
		// (no double-booked column under any policy).
		if _, err := o.Schedule().Simulate(); err != nil {
			t.Fatalf("trial %d: simulate: %v", trial, err)
		}
	}
}

// FuzzSubmitComplete feeds arbitrary op streams (decoded from the fuzz
// input) through both engines under the compaction policy, asserting state
// equality after every op — the fuzz companion of TestChurnMatchesReference.
func FuzzSubmitComplete(f *testing.F) {
	f.Add(int64(1), uint8(7))
	f.Add(int64(42), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kb uint8) {
		rng := rand.New(rand.NewSource(seed))
		K := 1 + int(kb)%16
		d := &Device{Columns: K}
		policy := Policy(int(kb/16) % 3)
		o := NewOnlineSchedulerPolicy(d, policy)
		e := newRefEngine(K, 0, policy)
		release := 0.0
		for step := 0; step < 40; step++ {
			if rng.Intn(3) < 2 {
				cols := 1 + rng.Intn(K)
				dur := 0.25 * float64(1+rng.Intn(8))
				actual := dur * float64(1+rng.Intn(4)) / 4
				if rng.Intn(3) == 0 {
					release += 0.25 * float64(rng.Intn(6))
				}
				task, err := o.SubmitWithLifetime(step, "", cols, dur, actual, release)
				if err != nil {
					t.Fatal(err)
				}
				wc, ws := e.submit(step, cols, dur, actual, release)
				if task.FirstCol != wc || task.Start != ws {
					t.Fatalf("step %d: placed (%d, %g) vs reference (%d, %g)", step, task.FirstCol, task.Start, wc, ws)
				}
			} else {
				at := e.now + 0.25*float64(1+rng.Intn(8))
				if err := o.AdvanceTo(at); err != nil {
					t.Fatal(err)
				}
				e.advanceTo(at)
			}
			compareState(t, 0, step, o, e)
		}
	})
}

// TestChurnPolicyOrdering: compaction NEVER yields a worse makespan than
// no-reclaim — that is structural (placements are identical and slides
// only move tasks earlier), so it is asserted per trial. Opportunistic
// reclaim can suffer Graham-style anomalies on individual instances, so it
// is only required to win in aggregate. Compaction must actually move
// tasks, and no-reclaim must reclaim nothing.
func TestChurnPolicyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	moved := 0
	var sumNone, sumReclaim float64
	for trial := 0; trial < 40; trial++ {
		K := 4 + rng.Intn(13)
		tasks, err := workload.Churn(rng, 30+rng.Intn(120), K, 0.5+0.5*rng.Float64(), 0.3)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDevice(K)
		_, stNone, err := RunChurn(tasks, d, NoReclaim)
		if err != nil {
			t.Fatal(err)
		}
		_, stReclaim, err := RunChurn(tasks, d, Reclaim)
		if err != nil {
			t.Fatal(err)
		}
		_, stCompact, err := RunChurn(tasks, d, ReclaimCompact)
		if err != nil {
			t.Fatal(err)
		}
		if stCompact.Makespan > stNone.Makespan+1e-9 {
			t.Fatalf("trial %d: compaction makespan %g worse than no-reclaim %g",
				trial, stCompact.Makespan, stNone.Makespan)
		}
		if stNone.ReclaimedColumnTime != 0 {
			t.Fatalf("trial %d: no-reclaim reported reclaimed time", trial)
		}
		sumNone += stNone.Makespan
		sumReclaim += stReclaim.Makespan
		moved += stCompact.TasksMoved
	}
	if moved == 0 {
		t.Fatal("compaction never moved a task across 40 churn trials")
	}
	if sumReclaim > sumNone {
		t.Fatalf("reclaim worse than no-reclaim in aggregate: %g vs %g", sumReclaim, sumNone)
	}
}
