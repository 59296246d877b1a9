package fleet

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"strippack/internal/fpga"
	"strippack/internal/workload"
)

func churnTrace(t testing.TB, seed int64, n, K int, load float64) []workload.ChurnTask {
	t.Helper()
	tasks, err := workload.Churn(rand.New(rand.NewSource(seed)), n, K, load, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// TestReconfigDelayFinish is the fleet-level regression test for the
// reconfiguration-delay rounding defect: with a nonzero delay, a start
// computed as occupancy + delay could land one ulp early after crossing a
// power of two, and Finish's simulation then rejected the shard as
// double-booked. This is the shape of `fleetload -n 5000 -shards 16 -k 32
// -policy compact -admission unbounded -reconfig 0.05 -route rr`.
func TestReconfigDelayFinish(t *testing.T) {
	const K = 32
	tasks := churnTrace(t, 1, 5000, K, 0.8*16)
	cfg := Config{Shards: 16, Columns: K, ReconfigDelay: 0.05,
		Policy: fpga.ReclaimCompact, Route: RouteRR}
	if _, err := RunChurn(tasks, cfg, 1024); err != nil {
		t.Fatal(err)
	}
}

// TestSingleShardMatchesScheduler is the reference-equivalence satellite:
// a fleet of one K-column shard must reproduce the lone OnlineScheduler
// byte-identically (canonical snapshot comparison), for every route —
// with one shard every route degenerates to "shard 0".
func TestSingleShardMatchesScheduler(t *testing.T) {
	const K = 16
	tasks := churnTrace(t, 51, 4000, K, 0.85)
	ac := fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 16}
	for _, route := range []Route{RouteRR, RouteLeast, RouteP2C} {
		f, err := New(Config{
			Shards: 1, Columns: K, Policy: fpga.ReclaimCompact,
			Admission: ac, Route: route, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		for base := 0; base < len(tasks); base += 128 {
			end := min(base+128, len(tasks))
			if _, err := f.SubmitBatch(Specs(tasks[base:end], base)); err != nil {
				t.Fatal(err)
			}
		}
		lone, err := fpga.NewOnlineSchedulerAdmission(fpga.NewDevice(K), fpga.ReclaimCompact, ac)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lone.SubmitBatch(nil, Specs(tasks, 0)); err != nil {
			t.Fatal(err)
		}
		if err := f.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := lone.Drain(); err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(f.Shard(0).Snapshot())
		b, _ := json.Marshal(lone.Snapshot())
		if string(a) != string(b) {
			t.Fatalf("route %v: single-shard fleet diverges from lone scheduler", route)
		}
	}
}

// TestWorkerCountInvariance is the determinism contract: identical Stats
// and identical per-shard snapshots at GOMAXPROCS 1, 3 and 8, across
// every route.
func TestWorkerCountInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const K = 8
	const shards = 5
	tasks := churnTrace(t, 53, 6000, K, 0.8*shards)
	for _, route := range []Route{RouteRR, RouteLeast, RouteP2C} {
		var refStats *Stats
		var refSnaps [][]byte
		for _, procs := range []int{1, 3, 8} {
			runtime.GOMAXPROCS(procs)
			cfg := Config{
				Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
				Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 8},
				Route:     route, Seed: 11,
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for base := 0; base < len(tasks); base += 256 {
				end := min(base+256, len(tasks))
				if _, err := f.SubmitBatch(Specs(tasks[base:end], base)); err != nil {
					t.Fatal(err)
				}
			}
			st, err := f.Finish()
			if err != nil {
				t.Fatal(err)
			}
			snaps := make([][]byte, shards)
			for i := 0; i < shards; i++ {
				snaps[i], _ = json.Marshal(f.Shard(i).Snapshot())
			}
			if refStats == nil {
				refStats, refSnaps = st, snaps
				if st.Admitted+st.Rejected+st.Shed != len(tasks) {
					t.Fatalf("route %v: conservation violated: %d+%d+%d != %d",
						route, st.Admitted, st.Rejected, st.Shed, len(tasks))
				}
				continue
			}
			if !reflect.DeepEqual(st, refStats) {
				t.Fatalf("route %v GOMAXPROCS %d: stats diverge\n%+v\nvs\n%+v", route, procs, st, refStats)
			}
			for i := range snaps {
				if string(snaps[i]) != string(refSnaps[i]) {
					t.Fatalf("route %v GOMAXPROCS %d: shard %d snapshot diverges", route, procs, i)
				}
			}
		}
	}
}

// TestRouteSpread: round-robin spreads a uniform stream evenly; least
// and p2c keep every shard busy (no starved shard under a fleet-wide
// offered load well above one shard's capacity).
func TestRouteSpread(t *testing.T) {
	const K = 8
	const shards = 4
	tasks := churnTrace(t, 57, 4000, K, 0.7*shards)
	for _, route := range []Route{RouteRR, RouteLeast, RouteP2C} {
		st, err := RunChurn(tasks, Config{
			Shards: shards, Columns: K, Policy: fpga.Reclaim, Route: route, Seed: 3,
		}, 200)
		if err != nil {
			t.Fatal(err)
		}
		if st.Admitted != len(tasks) {
			t.Fatalf("route %v: admitted %d of %d under AdmitAll", route, st.Admitted, len(tasks))
		}
		for i, ps := range st.PerShard {
			lo, hi := len(tasks)/shards/2, len(tasks)*2/shards
			if ps.Admitted < lo || ps.Admitted > hi {
				t.Fatalf("route %v: shard %d got %d tasks (want %d..%d)", route, i, ps.Admitted, lo, hi)
			}
		}
		if route == RouteRR {
			for i, ps := range st.PerShard {
				if ps.Admitted != len(tasks)/shards {
					t.Fatalf("rr: shard %d got %d tasks, want exactly %d", i, ps.Admitted, len(tasks)/shards)
				}
			}
		}
	}
}

// TestParseRoute covers the flag surface.
func TestParseRoute(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Route
	}{
		{"rr", RouteRR}, {"round-robin", RouteRR},
		{"least", RouteLeast}, {"least-loaded", RouteLeast},
		{"p2c", RouteP2C}, {"power-of-two", RouteP2C},
	} {
		got, err := ParseRoute(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseRoute(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Fatalf("Route(%v).String() empty", got)
		}
	}
	if _, err := ParseRoute("hash"); err == nil {
		t.Fatal("unknown route accepted")
	}
}

// TestConfigValidation covers New's error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 0, Columns: 4}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := New(Config{Shards: 2, Columns: 0}); err == nil {
		t.Fatal("0 columns accepted")
	}
	if _, err := New(Config{Shards: 2, Columns: 4,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitBounded}}); err == nil {
		t.Fatal("invalid shard admission accepted")
	}
	if _, err := RunChurn(nil, Config{Shards: 1, Columns: 4}, 10); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := RunChurn(make([]workload.ChurnTask, 1), Config{Shards: 1, Columns: 4}, 0); err == nil {
		t.Fatal("chunk 0 accepted")
	}
}
