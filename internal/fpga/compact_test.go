package fpga

import (
	"slices"
	"testing"
)

// columnLists returns every column's waiting list as task indices, head
// to tail.
func columnLists(o *OnlineScheduler) [][]int32 {
	out := make([][]int32, len(o.cidx.head))
	for c := range out {
		for n := o.cidx.head[c]; n >= 0; n = o.cidx.next[n] {
			out[c] = append(out[c], o.cidx.task[n])
		}
	}
	return out
}

// TestCompactNodesAllocFree: once the node arena and its per-width free
// lists have held the backlog's peak, unlinking and relinking waiting
// tasks and shedding them allocate nothing, and a full unlink/relink in
// start order rebuilds the same lists. The sheds also run the event heap
// filters, which must allocate nothing either.
func TestCompactNodesAllocFree(t *testing.T) {
	o, err := NewOnlineSchedulerAdmission(NewDevice(16), ReclaimCompact,
		AdmissionConfig{Policy: AdmitShed, MaxBacklog: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// All released at 0: one wave starts, the rest waits behind it.
	specs := make([]TaskSpec, 600)
	for i := range specs {
		d := 1 + float64(i%5)
		specs[i] = TaskSpec{ID: i, Cols: 1 + i%7, Duration: d, Actual: d / 2}
	}
	if _, err := o.SubmitBatch(nil, specs); err != nil {
		t.Fatal(err)
	}
	var waiting []int
	for idx := range o.tasks.n {
		if o.tasks.at(idx).flags&(flagStarted|flagShed) == 0 {
			waiting = append(waiting, idx)
		}
	}
	if len(waiting) < 400 {
		t.Fatalf("only %d tasks wait", len(waiting))
	}
	slices.SortFunc(waiting, func(a, b int) int {
		switch sa, sb := o.tasks.at(a).start, o.tasks.at(b).start; {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return a - b
	})
	before := columnLists(o)
	relink := func() {
		for i := len(waiting) - 1; i >= 0; i-- {
			o.unlinkWaiting(waiting[i])
		}
		for _, idx := range waiting {
			o.link(idx)
		}
	}
	if n := testing.AllocsPerRun(20, relink); n != 0 {
		t.Fatalf("unlink+link of %d waiting tasks: %v allocations per cycle", len(waiting), n)
	}
	if after := columnLists(o); !slices.EqualFunc(before, after, slices.Equal) {
		t.Fatal("relinking in start order changed the column lists")
	}

	// Shedding unlinks a task and slides its successors down. Grow the
	// append-only history up front, and give each event heap room for its
	// trimQueues bound plus the one entry per waiting task a compaction
	// pass can push before it trims, so what is left to measure is the
	// node path and the heap filters.
	const sheds = 50
	o.shedIDs = slices.Grow(o.shedIDs, sheds+1)
	o.candQ = slices.Grow(o.candQ, len(waiting))
	w, running := len(waiting), o.nStarted-o.completed
	o.startQ = slices.Grow(o.startQ, 3*w+queueSlack-len(o.startQ))
	o.compQ = slices.Grow(o.compQ, 3*w+2*running+queueSlack-len(o.compQ))
	startFiltered, compFiltered := 0, 0 // a shed only pushes onto the heaps
	shed := func() {
		ns, nc := len(o.startQ), len(o.compQ)
		if !o.shedOldest() {
			t.Fatal("nothing left to shed")
		}
		if len(o.startQ) < ns {
			startFiltered++
		}
		if len(o.compQ) < nc {
			compFiltered++
		}
	}
	if n := testing.AllocsPerRun(sheds, shed); n != 0 {
		t.Fatalf("shed: %v allocations per shed", n)
	}
	if startFiltered == 0 || compFiltered == 0 {
		t.Fatalf("%d sheds filtered startQ %d times and compQ %d times; want both filtered",
			sheds, startFiltered, compFiltered)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Schedule().Simulate(); err != nil {
		t.Fatal(err)
	}
}
