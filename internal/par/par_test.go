package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForLowestError: for any width, every index runs exactly once, w
// stays in [0, width) with no two calls on one w overlapping, and the
// error of the lowest failing index is the one returned.
func TestForLowestError(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8, 100} {
		for n := 0; n <= 40; n += 3 {
			calls := make([]atomic.Int32, n)
			busy := make([]atomic.Int32, max(width, 1))
			fails := func(i int) bool { return i%7 == 5 || i == n-1 }
			err := forWidth(n, width, func(w, i int) error {
				if w < 0 || w >= min(width, n) {
					t.Errorf("width %d, n %d: w = %d", width, n, w)
					return nil
				}
				if busy[w].Add(1) != 1 {
					t.Errorf("width %d, n %d: two calls overlap on w = %d", width, n, w)
				}
				defer busy[w].Add(-1)
				calls[i].Add(1)
				if fails(i) {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("width %d, n %d: index %d ran %d times", width, n, i, c)
				}
			}
			if n == 0 {
				if err != nil {
					t.Fatalf("width %d, n 0: error %v", width, err)
				}
				continue
			}
			want := n - 1
			if n > 5 {
				want = 5
			}
			if err == nil || err.Error() != fmt.Sprintf("index %d", want) {
				t.Fatalf("width %d, n %d: error %v, want index %d", width, n, err, want)
			}
		}
	}
}

// TestForWidthIsGOMAXPROCS: For runs on min(n, GOMAXPROCS) goroutines.
func TestForWidthIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{2, 10} {
			var top atomic.Int32
			if err := For(n, func(w, i int) error {
				for {
					cur := top.Load()
					if int32(w) <= cur || top.CompareAndSwap(cur, int32(w)) {
						return nil
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			if got := int(top.Load()); got >= min(procs, n) {
				t.Fatalf("GOMAXPROCS %d, n %d: w reached %d", procs, n, got)
			}
		}
	}
}
