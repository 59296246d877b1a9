package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestAllHaveUniqueIDsAndTitles(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(seen))
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("bogus ID found")
	}
}

// runExperiment executes one experiment and returns its table text.
func runExperiment(t *testing.T, id string) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	out := buf.String()
	if !strings.Contains(out, "---") {
		t.Fatalf("%s produced no table:\n%s", id, out)
	}
	return out
}

func TestE2GapColumnsGrow(t *testing.T) {
	out := runExperiment(t, "E2")
	// The last column (OPT/LB) must exceed 4 in the final row (k=10).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	fields := strings.Split(last, "|")
	ratio := strings.TrimSpace(fields[len(fields)-1])
	if !(strings.HasPrefix(ratio, "4") || strings.HasPrefix(ratio, "5")) {
		t.Fatalf("k=10 OPT/LB = %q, want ~5:\n%s", ratio, out)
	}
}

func TestE4RatioApproaches3(t *testing.T) {
	out := runExperiment(t, "E4")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	fields := strings.Split(last, "|")
	ratio := strings.TrimSpace(fields[len(fields)-1])
	if !strings.HasPrefix(ratio, "2.9") && !strings.HasPrefix(ratio, "3") {
		t.Fatalf("k=32 OPT/LB = %q, want ~3:\n%s", ratio, out)
	}
}

func TestSmallExperimentsRun(t *testing.T) {
	// The quick experiments run in-test; the heavyweight ones (E1 at
	// n=4096, E6, E7) are exercised by cmd/experiments and the benchmarks.
	// E13 is included: its per-trial assertions (compaction never worse
	// than no-reclaim, no-reclaim reclaims nothing) must hold on the exact
	// grid the table publishes. E14 likewise: its backlog-bound and
	// admission-conservation assertions run on the published grid, as do
	// E15's fleet-wide conservation and backlog-bound assertions.
	for _, id := range []string{"E3", "E5", "E8", "E10", "E13", "E14", "E15"} {
		id := id
		t.Run(id, func(t *testing.T) {
			runExperiment(t, id)
		})
	}
}

func TestRunAllWritesAllHeaders(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness is slow")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(buf.String(), "== "+e.ID+":") {
			t.Fatalf("missing %s section", e.ID)
		}
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)

// TestRunGridContract: at GOMAXPROCS 1 and 8, RunGrid groups results by
// row with reps in order, seeds trial i with baseSeed ^ i, runs every
// trial even after failures, and returns the lowest-index trial's error.
func TestRunGridContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const rows, reps, base = 4, 3, 77
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := RunGrid(rows, reps, base, func(tr Trial, rng *rand.Rand) (string, error) {
			return fmt.Sprintf("%d/%d/%d", tr.Row, tr.Rep, rng.Int63()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			for k := 0; k < reps; k++ {
				i := r*reps + k
				want := fmt.Sprintf("%d/%d/%d", r, k, rand.New(rand.NewSource(base^int64(i))).Int63())
				if got[r][k] != want {
					t.Fatalf("GOMAXPROCS %d: cell (%d, %d) = %s, want %s", procs, r, k, got[r][k], want)
				}
			}
		}
		var ran atomic.Int32
		_, err = RunGrid(rows, reps, base, func(tr Trial, _ *rand.Rand) (int, error) {
			ran.Add(1)
			if tr.Index == 5 || tr.Index == 9 {
				return 0, fmt.Errorf("trial %d", tr.Index)
			}
			return 0, nil
		})
		if err == nil || err.Error() != "trial 5" || ran.Load() != rows*reps {
			t.Fatalf("GOMAXPROCS %d: error %v after %d trials, want trial 5 after %d", procs, err, ran.Load(), rows*reps)
		}
	}
}
