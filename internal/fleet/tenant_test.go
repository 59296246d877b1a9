package fleet

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"strippack/internal/fpga"
)

// TestMixedColumnRouting is the heterogeneous-fleet slice of ROADMAP
// item 5: shards with different column counts, tasks wider than the
// narrow shards, and the width-eligibility + drain-time-normalized
// scoring rules of DESIGN.md.
func TestMixedColumnRouting(t *testing.T) {
	cols := []int{8, 8, 32, 32}
	mk := func(route Route) *Fleet {
		f, err := New(Config{
			Shards: 4, ShardCols: cols, Policy: fpga.ReclaimCompact,
			Route: route, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Alternating narrow (4-col) and wide (24-col) tasks: the wide ones
	// are only placeable on shards 2 and 3.
	specs := make([]fpga.TaskSpec, 120)
	for i := range specs {
		w := 4
		if i%2 == 1 {
			w = 24
		}
		specs[i] = fpga.TaskSpec{ID: i, Cols: w, Duration: 1, Release: float64(i) * 0.01}
	}
	for _, route := range []Route{RouteRR, RouteLeast, RouteP2C} {
		f := mk(route)
		placed, err := f.SubmitBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(placed) != len(specs) {
			t.Fatalf("route %v: placed %d of %d under AdmitAll", route, len(placed), len(specs))
		}
		perShard := make([]int, 4)
		for _, p := range placed {
			perShard[p.Shard]++
			if p.Task.Cols > cols[p.Shard] {
				t.Fatalf("route %v: %d-col task on %d-col shard %d", route, p.Task.Cols, cols[p.Shard], p.Shard)
			}
		}
		// rr is load-blind, so a periodic width pattern may alias against
		// the cursor and starve a narrow shard; the load-aware routes must
		// keep every shard busy.
		if route != RouteRR {
			for s, n := range perShard {
				if n == 0 {
					t.Fatalf("route %v: shard %d starved: %v", route, s, perShard)
				}
			}
		}
		if _, err := f.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	// Least-loaded with normalized scores sends the wide shards more
	// work: uniform narrow tasks should split roughly 8:8:32:32.
	f := mk(RouteLeast)
	uniform := make([]fpga.TaskSpec, 800)
	for i := range uniform {
		uniform[i] = fpga.TaskSpec{ID: i, Cols: 4, Duration: 1}
	}
	placed, err := f.SubmitBatch(uniform)
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([]int, 4)
	for _, p := range placed {
		perShard[p.Shard]++
	}
	for s := 0; s < 2; s++ {
		narrow, wide := perShard[s], perShard[s+2]
		if wide < 3*narrow {
			t.Fatalf("least: 32-col shard %d got %d tasks vs 8-col shard %d's %d — want ~4x", s+2, wide, s, narrow)
		}
	}
	// A task wider than every shard is a hard routing error raised
	// before any shard work runs.
	f = mk(RouteRR)
	if _, err := f.SubmitBatch([]fpga.TaskSpec{{ID: 1, Cols: 64, Duration: 1}}); err == nil {
		t.Fatal("64-col task accepted by a fleet whose widest shard has 32 columns")
	}
	if got := f.Shard(0).Load(); got.Waiting+got.Running+got.Done != 0 {
		t.Fatal("routing error leaked shard work")
	}
}

// TestMixedColumnWorkerInvariance: the determinism contract holds on a
// heterogeneous fleet too, at GOMAXPROCS 1 and 4.
func TestMixedColumnWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cols := []int{8, 16, 24, 32}
	tasks := churnTrace(t, 67, 5000, 8, 0.8*4)
	for _, route := range []Route{RouteRR, RouteLeast, RouteP2C} {
		var ref *Stats
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			st, err := RunChurn(tasks, Config{
				Shards: 4, ShardCols: cols, Policy: fpga.ReclaimCompact,
				Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 8},
				Route:     route, Seed: 17,
			}, 250)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = st
				continue
			}
			if !reflect.DeepEqual(st, ref) {
				t.Fatalf("route %v: mixed-K stats diverge across GOMAXPROCS", route)
			}
		}
	}
}

// TestTenantIsolation: tenants own disjoint contiguous shard ranges,
// route independently, and a tenant's traffic never lands outside its
// range.
func TestTenantIsolation(t *testing.T) {
	const K = 8
	f, err := New(Config{
		Shards: 6, Columns: K, Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitAll},
		Tenants: []Tenant{
			{Name: "alpha", Shards: 2, Route: RouteRR},
			{Name: "beta", Shards: 3, Route: RouteLeast},
			{Name: "gamma", Shards: 1, Route: RouteP2C},
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Tenants() != 3 {
		t.Fatalf("Tenants() = %d", f.Tenants())
	}
	if name, first, count := f.TenantRange(1); name != "beta" || first != 2 || count != 3 {
		t.Fatalf("TenantRange(1) = %q %d %d", name, first, count)
	}
	if name, first, count := f.TenantRange(2); name != "gamma" || first != 5 || count != 1 {
		t.Fatalf("TenantRange(2) = %q %d %d", name, first, count)
	}
	ranges := [3][2]int{{0, 2}, {2, 5}, {5, 6}}
	id := 0
	for ti := range ranges {
		specs := make([]fpga.TaskSpec, 60)
		for i := range specs {
			specs[i] = fpga.TaskSpec{ID: id, Cols: 2, Duration: 1, Release: float64(i) * 0.05}
			id++
		}
		placed, err := f.SubmitBatchTenant(ti, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range placed {
			if p.Shard < ranges[ti][0] || p.Shard >= ranges[ti][1] {
				t.Fatalf("tenant %d task %d routed to shard %d outside [%d, %d)",
					ti, p.Task.ID, p.Shard, ranges[ti][0], ranges[ti][1])
			}
		}
	}
	if _, err := f.SubmitBatchTenant(3, []fpga.TaskSpec{{ID: 999, Cols: 1, Duration: 1}}); err == nil {
		t.Fatal("out-of-range tenant accepted")
	}
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantRoutingMatchesStandalone: a tenant's routing sequence is
// independent of its neighbors — tenant ti of a multi-tenant fleet fed a
// stream produces the same shard-relative placements as a standalone
// fleet of the same shape (modulo the p2c seed offset, which is pinned
// to Seed + tenant index).
func TestTenantRoutingMatchesStandalone(t *testing.T) {
	const K = 8
	tasks := churnTrace(t, 71, 3000, K, 0.8*2)
	for _, route := range []Route{RouteRR, RouteLeast, RouteP2C} {
		multi, err := New(Config{
			Shards: 5, Columns: K, Policy: fpga.ReclaimCompact,
			Tenants: []Tenant{
				{Name: "pad", Shards: 3, Route: RouteRR},
				{Name: "t", Shards: 2, Route: route},
			},
			Seed: 21, // tenant 1 draws from seed 22
		})
		if err != nil {
			t.Fatal(err)
		}
		solo, err := New(Config{
			Shards: 2, Columns: K, Policy: fpga.ReclaimCompact,
			Route: route, Seed: 22, // the implicit tenant 0 draws from seed 22
		})
		if err != nil {
			t.Fatal(err)
		}
		for base := 0; base < len(tasks); base += 300 {
			end := min(base+300, len(tasks))
			specs := Specs(tasks[base:end], base)
			if _, err := multi.SubmitBatchTenant(1, specs); err != nil {
				t.Fatal(err)
			}
			if _, err := solo.SubmitBatch(specs); err != nil {
				t.Fatal(err)
			}
		}
		if err := multi.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := solo.Drain(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			a, _ := json.Marshal(multi.Shard(3 + i).Snapshot())
			b, _ := json.Marshal(solo.Shard(i).Snapshot())
			if string(a) != string(b) {
				t.Fatalf("route %v: tenant shard %d diverges from standalone fleet", route, i)
			}
		}
	}
}

// TestTenantConfigValidation covers the new Config surface.
func TestTenantConfigValidation(t *testing.T) {
	base := Config{Shards: 4, Columns: 8}
	cases := []struct {
		name string
		mut  func(c *Config)
	}{
		{"shardcols size", func(c *Config) { c.ShardCols = []int{8, 8} }},
		{"shardcols zero", func(c *Config) { c.ShardCols = []int{8, 8, 0, 8} }},
		{"bad fleet route", func(c *Config) { c.Route = Route(9) }},
		{"unnamed tenant", func(c *Config) { c.Tenants = []Tenant{{Shards: 4}} }},
		{"dup tenant", func(c *Config) {
			c.Tenants = []Tenant{{Name: "a", Shards: 2}, {Name: "a", Shards: 2}}
		}},
		{"empty tenant", func(c *Config) {
			c.Tenants = []Tenant{{Name: "a", Shards: 0}, {Name: "b", Shards: 4}}
		}},
		{"bad tenant route", func(c *Config) { c.Tenants = []Tenant{{Name: "a", Shards: 4, Route: Route(7)}} }},
		{"partition short", func(c *Config) { c.Tenants = []Tenant{{Name: "a", Shards: 3}} }},
		{"partition long", func(c *Config) { c.Tenants = []Tenant{{Name: "a", Shards: 5}} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	// ShardCols set: Columns is ignored, even when zero.
	f, err := New(Config{Shards: 2, ShardCols: []int{4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Cols(0) != 4 || f.Cols(1) != 8 {
		t.Fatalf("Cols = %d, %d", f.Cols(0), f.Cols(1))
	}
	if got := f.ShardColumns(); !reflect.DeepEqual(got, []int{4, 8}) {
		t.Fatalf("ShardColumns() = %v", got)
	}
	// Config() deep-copies the optional slices.
	cfg := f.Config()
	cfg.ShardCols[0] = 99
	if f.Cols(0) != 4 {
		t.Fatal("Config() aliases ShardCols")
	}
}
