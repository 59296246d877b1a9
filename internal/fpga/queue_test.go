package fpga

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"strippack/internal/workload"
)

// checkQueueBounds asserts trimQueues' bounds: each lazily-deleted queue
// holds at most twice its live bound plus queueSlack entries.
func checkQueueBounds(t *testing.T, o *OnlineScheduler, what string, id int) {
	t.Helper()
	running := o.nStarted - o.completed
	if n := len(o.startQ); n > 2*o.waiting+queueSlack {
		t.Fatalf("%s task %d: startQ holds %d entries for %d waiting tasks", what, id, n, o.waiting)
	}
	if n := len(o.compQ); n > 2*(o.waiting+running)+queueSlack {
		t.Fatalf("%s task %d: compQ holds %d entries for %d waiting + %d running tasks", what, id, n, o.waiting, running)
	}
	if n := len(o.waitFIFO); n > 2*o.waiting+queueSlack {
		t.Fatalf("%s task %d: waitFIFO holds %d entries for %d waiting tasks", what, id, n, o.waiting)
	}
}

// TestEventQueuesBounded drives one shard at serve-restart-burst's
// per-shard shape (burst traffic, compact, shed 64), where compaction
// slides each placed task about ten times, and at churn load 0.8, where
// most tasks wait and then start without being shed. After every
// submission every event queue must stay within its bound; without the
// filter the start heap grows with the slides and the FIFO with every
// task that ever waited.
func TestEventQueuesBounded(t *testing.T) {
	const n, K = 20_000, 16
	burst, err := workload.Burst(rand.New(rand.NewSource(41)), n, K, 0.6, 2.4, 0.3, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := workload.Churn(rand.New(rand.NewSource(43)), n, K, 0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		tasks []workload.ChurnTask
	}{{"burst", burst}, {"churn", churn}} {
		o, err := NewOnlineSchedulerAdmission(NewDevice(K), ReclaimCompact,
			AdmissionConfig{Policy: AdmitShed, MaxBacklog: 64})
		if err != nil {
			t.Fatal(err)
		}
		var peakStart, peakComp, peakFIFO int
		for id, ct := range tc.tasks {
			if _, err := o.SubmitWithLifetime(id, "", ct.Cols, ct.Duration, ct.Lifetime, ct.Release); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatalf("%s task %d: %v", tc.name, id, err)
			}
			checkQueueBounds(t, o, tc.name, id)
			peakStart = max(peakStart, len(o.startQ))
			peakComp = max(peakComp, len(o.compQ))
			peakFIFO = max(peakFIFO, len(o.waitFIFO))
		}
		if o.tasksMoved < n {
			t.Fatalf("%s: only %d slides for %d tasks", tc.name, o.tasksMoved, n)
		}
		t.Logf("%s: %d slides, %d sheds; peak startQ %d, compQ %d, waitFIFO %d",
			tc.name, o.tasksMoved, o.sheds, peakStart, peakComp, peakFIFO)
		if err := o.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Schedule().Simulate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeapFilterKeepsPopOrder: a heap holding stale duplicates pops the
// same sequence of live entries whether or not filter ran first, also
// when the filter runs on a partly popped heap. Keys are quantized so
// equal keys, and exact duplicate entries, occur.
func TestHeapFilterKeepsPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		key := make([]float64, n) // each task's live key
		dead := make([]bool, n)
		var h taskHeap
		for i := range key {
			key[i] = float64(rng.Intn(64)) / 4
			h.push(key[i], i)
		}
		for s := rng.Intn(4 * n); s > 0; s-- {
			i := rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				dead[i] = true
			case 1:
				h.push(key[i], i) // exact duplicate of the live entry
			default: // a slide: a fresh, strictly lower live key
				key[i] -= float64(1+rng.Intn(8)) / 4
				h.push(key[i], i)
			}
		}
		live := func(e taskEvent) bool { return !dead[e.idx] && e.key == key[e.idx] }
		livePops := func(h taskHeap) []taskEvent {
			var out []taskEvent
			for len(h) > 0 {
				k, i := h.pop()
				if e := (taskEvent{k, i}); live(e) {
					out = append(out, e)
				}
			}
			return out
		}
		skip := rng.Intn(len(h) + 1)
		for j := 0; j < skip; j++ {
			h.pop()
		}
		want := livePops(slices.Clone(h))
		filtered := slices.Clone(h)
		filtered.filter(live)
		for _, e := range filtered {
			if !live(e) {
				t.Fatalf("trial %d: filter kept stale entry %+v", trial, e)
			}
		}
		if got := livePops(filtered); !slices.Equal(got, want) {
			t.Fatalf("trial %d: live pops after filter\n got %v\nwant %v", trial, got, want)
		}
	}
}

// heapFiltered reports whether a filter ran on a heap during one
// operation: an entry that was already stale before it and that no pop
// could reach (its key lies beyond the clock after it) is gone.
func heapFiltered(staleBefore []taskEvent, after taskHeap, clock float64) bool {
	left := make(map[taskEvent]int, len(after))
	for _, e := range after {
		left[e]++
	}
	for _, e := range staleBefore {
		if e.key <= clock+1e-6 {
			continue
		}
		if left[e] == 0 {
			return true
		}
		left[e]--
	}
	return false
}

// fifoFiltered reports whether a filter ran on waitFIFO during one
// operation. Without one the entries that survive from before form a
// suffix of the old FIFO (shedOldest consumes only from the front).
func fifoFiltered(before, after []int) bool {
	if len(after) == 0 {
		return false
	}
	p := slices.Index(before, after[0])
	if p < 0 {
		return false
	}
	rest := before[p:]
	return len(after) < len(rest) || !slices.Equal(after[:len(rest)], rest)
}

func staleEntries(h taskHeap, live func(taskEvent) bool) []taskEvent {
	var out []taskEvent
	for _, e := range h {
		if !live(e) {
			out = append(out, e)
		}
	}
	return out
}

// TestOverloadMatchesReference drives burst traces (quiet phases at load
// 0.8, near capacity, broken by short bursts at 2.4) through the
// scheduler and the brute-force reference under every reclaim policy and
// both bounded admission policies, comparing the complete state after
// every submission. The compact + shed runs are where slides, sheds and
// promotions leave the most stale entries, so they must fire every queue
// filter many times; the other runs check that what the filters drop
// (shed tasks' events, dead FIFO entries) changes nothing either.
func TestOverloadMatchesReference(t *testing.T) {
	const n = 2500
	var startF, compF, fifoF int
	trial := 0
	for _, policy := range []Policy{NoReclaim, Reclaim, ReclaimCompact} {
		for _, ac := range []AdmissionConfig{
			{Policy: AdmitBounded, MaxBacklog: 8},
			{Policy: AdmitShed, MaxBacklog: 8},
			{Policy: AdmitShed, MaxBacklog: 24},
		} {
			for _, delay := range []float64{0, 0.05} {
				trial++
				rng := rand.New(rand.NewSource(int64(trial)))
				K := 6 + rng.Intn(11)
				tasks, err := workload.Burst(rng, n, K, 0.8, 2.4, 0.3, 300, 40)
				if err != nil {
					t.Fatal(err)
				}
				d := &Device{Columns: K, ReconfigDelay: delay}
				o, err := NewOnlineSchedulerAdmission(d, policy, ac)
				if err != nil {
					t.Fatal(err)
				}
				e := newRefEngine(K, delay, policy)
				e.admission = ac
				for id, ct := range tasks {
					staleStart := staleEntries(o.startQ, o.startLive)
					staleComp := staleEntries(o.compQ, o.compLive)
					fifo := slices.Clone(o.waitFIFO)
					task, err := o.SubmitWithLifetime(id, "", ct.Cols, ct.Duration, ct.Lifetime, ct.Release)
					wc, ws := e.submit(id, ct.Cols, ct.Duration, ct.Lifetime, ct.Release)
					switch {
					case errors.Is(err, ErrRejected):
						if wc != -1 {
							t.Fatalf("trial %d task %d: refused, reference placed it at (%d, %g)", trial, id, wc, ws)
						}
					case err != nil:
						t.Fatalf("trial %d task %d: %v", trial, id, err)
					case task.FirstCol != wc || task.Start != ws:
						t.Fatalf("trial %d task %d: placed (%d, %g) vs reference (%d, %g)",
							trial, id, task.FirstCol, task.Start, wc, ws)
					}
					compareState(t, trial, id, o, e)
					checkQueueBounds(t, o, "overload", id)
					if heapFiltered(staleStart, o.startQ, o.now) {
						startF++
					}
					if heapFiltered(staleComp, o.compQ, o.now) {
						compF++
					}
					if fifoFiltered(fifo, o.waitFIFO) {
						fifoF++
					}
				}
				if err := o.Drain(); err != nil {
					t.Fatal(err)
				}
				e.advanceTo(math.Inf(1))
				compareState(t, trial, -1, o, e)
				if _, err := o.Schedule().Simulate(); err != nil {
					t.Fatalf("trial %d: simulate: %v", trial, err)
				}
			}
		}
	}
	t.Logf("filters seen: startQ %d, compQ %d, waitFIFO %d", startF, compF, fifoF)
	if startF < 20 || compF < 20 || fifoF < 20 {
		t.Fatalf("filters seen: startQ %d, compQ %d, waitFIFO %d; want at least 20 each", startF, compF, fifoF)
	}
}
