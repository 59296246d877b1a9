// Package par runs the index loops the stack fans out over goroutines:
// the experiment trial grid, configuration-LP pricing, the fleet's
// per-shard work and checkpoint capture. Its width is GOMAXPROCS, read at
// each call, so no caller carries a worker-count setting; every caller
// writes each index's result into its own slot, which keeps the output
// independent of the width.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(w, i) once for every i in [0, n), on min(n, GOMAXPROCS)
// goroutines, the caller's included, and returns the error of the lowest
// failing i, so the error reported never depends on goroutine
// interleaving. Every i runs, even after a failure. w in [0, width) names
// the goroutine running the call, so fn may keep scratch per w; no two
// calls with the same w overlap. Goroutines claim indices from a shared
// counter, so a call spawns at most width-1 goroutines and makes no
// per-index channel handoff.
func For(n int, fn func(w, i int) error) error {
	return forWidth(n, runtime.GOMAXPROCS(0), fn)
}

func forWidth(n, width int, fn func(w, i int) error) error {
	width = min(width, n)
	if width <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	l := &loop{fn: fn, n: n, errAt: n}
	l.wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer l.wg.Done()
			l.work(w)
		}()
	}
	l.work(0)
	l.wg.Wait()
	return l.first
}

// loop is the state one parallel For call shares among its goroutines.
type loop struct {
	fn    func(w, i int) error
	n     int
	next  atomic.Int64
	wg    sync.WaitGroup
	mu    sync.Mutex
	errAt int // lowest failing index so far; n while none has failed
	first error
}

// work claims indices until none is left, running each on w.
func (l *loop) work(w int) {
	for {
		i := int(l.next.Add(1) - 1)
		if i >= l.n {
			return
		}
		if err := l.fn(w, i); err != nil {
			l.mu.Lock()
			if i < l.errAt {
				l.errAt, l.first = i, err
			}
			l.mu.Unlock()
		}
	}
}
