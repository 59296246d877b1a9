package precedence

import (
	"math/rand"
	"runtime"
	"testing"

	"strippack/internal/dag"
	"strippack/internal/geom"
	"strippack/internal/packing"
)

// layeredDAGInstance builds a random layered-DAG instance, the workload
// shape E1 sweeps.
func layeredDAGInstance(rng *rand.Rand, n, layers int, p float64) *geom.Instance {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{W: 0.05 + 0.8*rng.Float64(), H: 0.05 + 0.95*rng.Float64()}
	}
	in := geom.NewInstance(1, rects)
	in.Prec = dag.RandomLayered(rng, n, layers, p).Edges()
	return in
}

func samePacking(t *testing.T, label string, a, b *geom.Packing, sa, sb *DCStats) {
	t.Helper()
	if *sa != *sb {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, *sa, *sb)
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("%s: rect %d placed at %+v vs %+v", label, i, a.Pos[i], b.Pos[i])
		}
	}
}

// TestDCParallelMatchesSerial is the DC determinism contract (see DC):
// for any instance, GOMAXPROCS 1 and 8 must produce bit-identical
// packings and identical DCStats. Several sizes cross the async spawn
// threshold so the pooled-goroutine path really runs.
func TestDCParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		n := 50 + rng.Intn(450)
		in := layeredDAGInstance(rng, n, 2+rng.Intn(12), 0.05+0.3*rng.Float64())
		runtime.GOMAXPROCS(1)
		p1, s1, err := DC(in, nil)
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		if err := p1.Validate(); err != nil {
			t.Fatalf("trial %d serial invalid: %v", trial, err)
		}
		// Run the parallel variant several times: scheduling nondeterminism
		// that leaked into the output would show up across repeats.
		runtime.GOMAXPROCS(8)
		for rep := 0; rep < 3; rep++ {
			p8, s8, err := DC(in, nil)
			if err != nil {
				t.Fatalf("trial %d rep %d parallel: %v", trial, rep, err)
			}
			samePacking(t, "GOMAXPROCS 1 vs 8", p1, p8, s1, s8)
		}
	}
}

// TestDCParallelMatchesSerialWithOptions covers the non-default subroutine
// (copying adapter) and split fraction under the same contract.
func TestDCParallelMatchesSerialWithOptions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(67))
	in := layeredDAGInstance(rng, 300, 8, 0.2)
	for _, opts := range []DCOptions{
		{Subroutine: packing.FFDH},
		{SplitFraction: 0.35},
	} {
		runtime.GOMAXPROCS(1)
		p1, s1, err := DC(in, &opts)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(8)
		p8, s8, err := DC(in, &opts)
		if err != nil {
			t.Fatal(err)
		}
		samePacking(t, "option variant", p1, p8, s1, s8)
		if err := p8.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDCSerialRecursionAllocFree pins the arena design: once the run is set
// up, repeated serial DC calls on the same instance stay within the fixed
// per-run setup allocations (graph build, packing, id/height/scratch
// arrays) — about a dozen and a half allocations regardless of n, where the
// old induced-subgraph recursion did O(n) per *level*. GOMAXPROCS 1 keeps
// the run serial.
func TestDCSerialRecursionAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(71))
	in := layeredDAGInstance(rng, 500, 10, 0.15)
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := DC(in, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Generous ceiling: the point is O(1), not an exact count that breaks
	// on runtime changes.
	if allocs > 40 {
		t.Fatalf("serial DC run allocates %.0f times, want O(1) (<= 40)", allocs)
	}
}
