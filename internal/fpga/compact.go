package fpga

import "strippack/internal/geom"

// Incremental compaction for ReclaimCompact.
//
// The original compaction pass re-swept every waiting task after every
// reclaim (sort by start, slide each onto the running per-column profile),
// which is O(queue log queue) per completion — quadratic over a churn run
// once the backlog grows, and the backlog does grow past the device's
// fragmentation capacity. This file replaces the sweep with a worklist
// keyed on the reclaimed column range [l, r): only tasks whose slide floor
// can actually have changed are visited, so a reclaim costs O(affected),
// independent of the total queue length.
//
// State: every waiting task (placed, occupancy not begun) is linked into a
// doubly-linked list per column it occupies, kept in increasing start
// order (colIndex). The compacted profile of a column is then the End of
// the last waiting task in its list, or fixedEnd[c] when the list is
// empty; a waiting task's slide floor is max(release, now, predecessor End
// per column) where the predecessor is the previous list node (or the
// fixed profile at the head).
//
// List order is an invariant, not a sort: per column, occupancy intervals
// [Start-delay, End) of distinct tasks are disjoint and durations are
// positive, so list successors have strictly larger starts; submissions
// append at the tail (the new task's window maximum covers every earlier
// commitment on its columns), and a slide lowers a task's start to at
// least its predecessor's End + delay, preserving order on both sides.
//
// Equivalence with the full sweep (the refEngine property tests in
// churn_test.go assert it on every trial): a full sweep moves task X iff
// its floor dropped below its start since placement. The floor only drops
// when (a) a column's fixed profile drops under X's predecessor-free
// prefix — X is then the head of an affected column in [l, r) and gets
// seeded, (b) a predecessor of X slides — the slide pushes X (cascade), or
// (c) X was placed above the compacted profile to begin with, because
// placement uses the pessimistic declared horizon — detected at submission
// and parked in slackQ, drained into every pass. Candidates pop in
// strictly increasing (start, index) order — cascade pushes carry strictly
// larger starts than the popped task (disjoint occupancy again) — so each
// task is visited at most once per pass and sees its predecessors' final
// ends, exactly like the sweep.

// colIndex is an arena of intrusive doubly-linked list nodes, one list per
// device column, holding the waiting tasks that occupy the column in
// increasing start order. A waiting task of width w owns one block of w
// consecutive nodes — node base+j sits in column FirstCol+j's list — so
// the block base is all the task needs to keep. Freed blocks are recycled
// through per-width free lists, so a long churn run allocates nodes only
// while the backlog of some width is above its earlier peak.
type colIndex struct {
	head, tail []int32   // per column, -1 = empty
	next, prev []int32   // per node, -1 = none
	task       []int32   // per node: task index
	free       [][]int32 // per width: recycled block bases (grown on demand)
}

func newColIndex(cols int) *colIndex {
	x := &colIndex{head: make([]int32, cols), tail: make([]int32, cols)}
	for c := range x.head {
		x.head[c], x.tail[c] = -1, -1
	}
	return x
}

// alloc returns the base of a block of w nodes owned by taskIdx, reusing
// a freed block of the same width when there is one.
func (x *colIndex) alloc(w, taskIdx int) int32 {
	var base int32
	if w < len(x.free) && len(x.free[w]) > 0 {
		f := x.free[w]
		base, x.free[w] = f[len(f)-1], f[:len(f)-1]
	} else {
		base = int32(len(x.task))
		x.task = append(x.task, make([]int32, w)...)
		x.next = append(x.next, make([]int32, w)...)
		x.prev = append(x.prev, make([]int32, w)...)
	}
	for id := base; id < base+int32(w); id++ {
		x.task[id] = int32(taskIdx)
	}
	return base
}

// release recycles the block of w nodes at base; its nodes must already
// be unlinked.
func (x *colIndex) release(base int32, w int) {
	if w >= len(x.free) {
		x.free = append(x.free, make([][]int32, w+1-len(x.free))...)
	}
	x.free[w] = append(x.free[w], base)
}

// pushTail appends node id to column c's list.
func (x *colIndex) pushTail(c int, id int32) {
	x.next[id] = -1
	x.prev[id] = x.tail[c]
	if x.tail[c] >= 0 {
		x.next[x.tail[c]] = id
	} else {
		x.head[c] = id
	}
	x.tail[c] = id
}

// remove unlinks node id from column c's list.
func (x *colIndex) remove(c int, id int32) {
	p, n := x.prev[id], x.next[id]
	if p >= 0 {
		x.next[p] = n
	} else {
		x.head[c] = n
	}
	if n >= 0 {
		x.prev[n] = p
	} else {
		x.tail[c] = p
	}
}

// linkWaiting inserts a newly placed waiting task at the tail of its
// columns' lists and parks it in slackQ when it was placed above the
// compacted profile (slack source (c) above: the pessimistic placement
// horizon exceeds the actual profile whenever an early completion was
// reclaimed under the window but the sweep had nothing to slide yet).
func (o *OnlineScheduler) linkWaiting(idx int) {
	r := o.tasks.at(idx)
	floor := r.release
	if floor < o.now {
		floor = o.now
	}
	for c := r.firstCol; c < r.firstCol+r.cols; c++ {
		p := o.fixedEnd[c]
		if tl := o.cidx.tail[c]; tl >= 0 {
			p = o.tasks.at(int(o.cidx.task[tl])).end()
		}
		if p > floor {
			floor = p
		}
	}
	if floor+o.device.ReconfigDelay < r.start-geom.Eps {
		o.slackQ = append(o.slackQ, idx)
	}
	o.link(idx)
}

// link appends a waiting task to the tail of its columns' lists.
func (o *OnlineScheduler) link(idx int) {
	r := o.tasks.at(idx)
	base := o.cidx.alloc(int(r.cols), idx)
	for j := int32(0); j < r.cols; j++ {
		o.cidx.pushTail(int(r.firstCol+j), base+j)
	}
	r.node = base
}

// unlinkWaiting removes a task (promoted to started, or shed) from the
// per-column lists.
func (o *OnlineScheduler) unlinkWaiting(idx int) {
	r := o.tasks.at(idx)
	base := r.node
	if base < 0 {
		return
	}
	for j := int32(0); j < r.cols; j++ {
		o.cidx.remove(int(r.firstCol+j), base+j)
	}
	o.cidx.release(base, int(r.cols))
	r.node = -1
}

// pushCand queues a waiting task for re-evaluation by the running
// compaction pass, keyed by its current start (ties by submission index —
// the sweep's sort order).
func (o *OnlineScheduler) pushCand(idx int) {
	r := o.tasks.at(idx)
	if r.flags&(flagInCand|flagStarted|flagDone|flagShed) != 0 {
		return
	}
	r.flags |= flagInCand
	o.candQ.push(r.start, idx)
}

// seedSlack drains the submission-time slack queue into the candidate
// heap. Without it an incremental pass would miss tasks whose slack
// predates the triggering reclaim (slack source (c)): a task placed over
// already-reclaimed time on columns disjoint from [l, r) has no
// predecessor and no affected column, yet the full sweep would slide it.
func (o *OnlineScheduler) seedSlack() {
	for _, idx := range o.slackQ {
		o.pushCand(idx)
	}
	o.slackQ = o.slackQ[:0]
}

// compactRange runs a compaction pass seeded from the reclaimed column
// range [l, r): the head waiting task of each affected column (the only
// tasks whose floor the fixedEnd drop can reach directly) plus the parked
// slack tasks. Cascades from slides reach everything else the full sweep
// would move.
func (o *OnlineScheduler) compactRange(l, r int) {
	o.seedSlack()
	for c := l; c < r; c++ {
		if n := o.cidx.head[c]; n >= 0 {
			o.pushCand(int(o.cidx.task[n]))
		}
	}
	o.runCompact()
}

// runCompact drains the candidate heap, sliding each task down onto
// startAfter(max(release, now, per-column predecessor end), delay) when
// that beats its current start by more than Eps. A slide pushes fresh heap
// entries for the task's start/completion events and queues the task's
// list successors, whose floor just dropped. The old entries go stale: the
// fresh key is strictly smaller, so the live entry always pops first and
// the stale ones are skipped on pop. A pass that moved a task ends with
// trimQueues, so a long advance cannot pile stale entries up between
// submissions.
// The placement horizon is NOT updated: submissions keep seeing the
// pessimistic declared horizon, which is exactly what makes the mode
// anomaly-free.
func (o *OnlineScheduler) runCompact() {
	delay := o.device.ReconfigDelay
	moved := false
	for len(o.candQ) > 0 {
		_, idx := o.candQ.pop()
		r := o.tasks.at(idx)
		r.flags &^= flagInCand
		if r.flags&(flagStarted|flagDone|flagShed) != 0 {
			continue
		}
		floor := r.release
		if floor < o.now {
			floor = o.now
		}
		base := r.node
		for j := int32(0); j < r.cols; j++ {
			p := o.fixedEnd[r.firstCol+j]
			if pv := o.cidx.prev[base+j]; pv >= 0 {
				p = o.tasks.at(int(o.cidx.task[pv])).end()
			}
			if p > floor {
				floor = p
			}
		}
		s := startAfter(floor, delay)
		if s >= r.start-geom.Eps {
			continue
		}
		r.start = s
		moved = true
		o.tasksMoved++
		o.startQ.push(s-delay, idx)
		if a := r.actual; a == a { // registered lifetime (not NaN)
			o.compQ.push(s+a, idx)
		}
		for n := base; n < base+r.cols; n++ {
			if nx := o.cidx.next[n]; nx >= 0 {
				o.pushCand(int(o.cidx.task[nx]))
			}
		}
	}
	if moved {
		o.compactPasses++
		o.trimQueues()
	}
}
