package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"strippack/internal/fpga"
)

// TenantLoads returns tenant ti's shards' live load accounting, in shard
// order within the lane. It reads only ti's shards, so the lane tests call
// it from each tenant's goroutine to check that reads stay in their lane.
func (f *Fleet) TenantLoads(ti int) ([]fpga.LoadStats, error) {
	if ti < 0 || ti >= len(f.lanes) {
		return nil, fmt.Errorf("fleet: tenant %d out of range [0, %d)", ti, len(f.lanes))
	}
	t := &f.lanes[ti]
	out := make([]fpga.LoadStats, t.count)
	for j := 0; j < t.count; j++ {
		out[j] = f.shards[t.first+j].Load()
	}
	return out, nil
}

// lanesConfig is a three-tenant fleet covering all three routes, so the
// disjointness and lane-state tests exercise every kind of lane-owned
// mutable state (rr cursor, score vector, p2c rng).
func lanesConfig() Config {
	return Config{
		Shards: 8, Columns: 8, Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 16},
		Tenants: []Tenant{
			{Name: "alpha", Shards: 3, Route: RouteRR},
			{Name: "beta", Shards: 3, Route: RouteLeast},
			{Name: "gamma", Shards: 2, Route: RouteP2C},
		},
		Seed: 11,
	}
}

// driveTenantSerial replays tenant ti's stream through the fleet in
// chunks, interleaving drains — the same call sequence the concurrent
// test issues from its per-tenant goroutine.
func driveTenantSerial(t *testing.T, f *Fleet, ti int, seed int64, n int) {
	t.Helper()
	tasks := churnTrace(t, seed, n, 8, 0.8*3)
	for base := 0; base < len(tasks); base += 200 {
		end := min(base+200, len(tasks))
		if _, err := f.SubmitBatchTenant(ti, Specs(tasks[base:end], base)); err != nil {
			t.Error(err)
			return
		}
		if base%400 == 0 {
			if err := f.DrainTenant(ti); err != nil {
				t.Error(err)
				return
			}
			if _, err := f.TenantLoads(ti); err != nil {
				t.Error(err)
				return
			}
			if _, err := f.LaneState(ti); err != nil {
				t.Error(err)
				return
			}
		}
	}
}

// TestTenantLanesDisjoint pins the tentpole contract: per-tenant
// operations for distinct tenants run concurrently (under -race) with
// zero shared mutable state, and each tenant's result is byte-identical
// to the serial single-goroutine run — per-tenant streams are
// deterministic independently, cross-tenant wall-clock interleaving is
// free.
func TestTenantLanesDisjoint(t *testing.T) {
	shardSnaps := func(f *Fleet) []string {
		out := make([]string, f.Shards())
		for i := range out {
			b, err := json.Marshal(f.Shard(i).Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}

	serial, err := New(lanesConfig())
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < serial.Tenants(); ti++ {
		driveTenantSerial(t, serial, ti, 101+int64(ti), 3000)
	}

	conc, err := New(lanesConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for ti := 0; ti < conc.Tenants(); ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			driveTenantSerial(t, conc, ti, 101+int64(ti), 3000)
		}(ti)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if got, want := shardSnaps(conc), shardSnaps(serial); !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("shard %d snapshot diverges between concurrent and serial tenant drives", i)
			}
		}
	}
	if got, want := conc.Meters(), serial.Meters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("meters diverge: concurrent %+v, serial %+v", got, want)
	}
	for ti := 0; ti < conc.Tenants(); ti++ {
		a, _ := conc.LaneState(ti)
		b, _ := serial.LaneState(ti)
		if a != b {
			t.Fatalf("tenant %d lane state diverges: concurrent %+v, serial %+v", ti, a, b)
		}
	}
}

// TestTenantQuotas: MaxTaskCols and MaxBacklog refuse whole batches with
// typed errors before any routing, and the lane meter accounts for every
// offered spec.
func TestTenantQuotas(t *testing.T) {
	cfg := Config{
		Shards: 4, Columns: 8, Policy: fpga.ReclaimCompact,
		Tenants: []Tenant{
			{Name: "capped", Shards: 2, Route: RouteLeast, MaxBacklog: 4, MaxTaskCols: 4},
			{Name: "free", Shards: 2, Route: RouteLeast},
		},
		Seed: 3,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A batch containing one over-wide task is refused whole.
	batch := []fpga.TaskSpec{
		{ID: 0, Cols: 2, Duration: 1},
		{ID: 1, Cols: 6, Duration: 1}, // > MaxTaskCols 4
	}
	if _, err := f.SubmitBatchTenant(0, batch); !errors.Is(err, ErrQuotaTaskCols) {
		t.Fatalf("over-wide batch: got %v, want ErrQuotaTaskCols", err)
	}
	if ld, _ := f.TenantLoads(0); ld[0].Waiting+ld[0].Running+ld[0].Done+ld[1].Waiting+ld[1].Running+ld[1].Done != 0 {
		t.Fatal("quota refusal leaked shard work")
	}
	m := f.Meters()[0]
	if m.Submitted != 2 || m.Refused != 2 || m.Placed != 0 {
		t.Fatalf("meter after width refusal: %+v", m)
	}

	// Fill the backlog past the quota: 12 half-width long tasks on 2
	// shards leave 2 running and 4 waiting per shard — 8 waiting >=
	// MaxBacklog 4 refuses the next batch at its barrier.
	wait := make([]fpga.TaskSpec, 12)
	for i := range wait {
		wait[i] = fpga.TaskSpec{ID: 10 + i, Cols: 4, Duration: 10}
	}
	if _, err := f.SubmitBatchTenant(0, wait); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitBatchTenant(0, []fpga.TaskSpec{{ID: 30, Cols: 1, Duration: 1}}); !errors.Is(err, ErrQuotaBacklog) {
		t.Fatalf("over-backlog batch: got %v, want ErrQuotaBacklog", err)
	}
	m = f.Meters()[0]
	if m.Submitted != 15 || m.Refused != 3 || m.Placed != 12 {
		t.Fatalf("meter after backlog refusal: %+v", m)
	}

	// The unquota'd tenant is unaffected.
	if _, err := f.SubmitBatchTenant(1, []fpga.TaskSpec{{ID: 40, Cols: 6, Duration: 1}}); err != nil {
		t.Fatalf("free tenant refused: %v", err)
	}
	if m := f.Meters()[1]; m.Submitted != 1 || m.Placed != 1 || m.Refused != 0 || m.ColTime != 6 {
		t.Fatalf("free tenant meter: %+v", m)
	}
}

// TestLaneStateRoundTrip: LaneState + per-shard snapshots captured
// mid-stream and restored into a fresh fleet replay the tail
// byte-identically — the fleet half of the daemon checkpoint contract.
func TestLaneStateRoundTrip(t *testing.T) {
	cfg := lanesConfig()
	tasks := churnTrace(t, 77, 4000, 8, 0.8*3)
	chunk := 250
	cut := 2000 // checkpoint boundary, chunk-aligned

	drive := func(f *Fleet, ti, from, to int) {
		for base := from; base < to; base += chunk {
			end := min(base+chunk, to)
			if _, err := f.SubmitBatchTenant(ti, Specs(tasks[base:end], base)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Uninterrupted reference run: all three tenants, full stream.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < ref.Tenants(); ti++ {
		drive(ref, ti, 0, len(tasks))
	}

	// Checkpointed run: drive to the cut, capture, rebuild, replay tail.
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < a.Tenants(); ti++ {
		drive(a, ti, 0, cut)
	}
	lanes := make([]LaneState, a.Tenants())
	for ti := range lanes {
		if lanes[ti], err = a.LaneState(ti); err != nil {
			t.Fatal(err)
		}
	}
	snaps := make([]*fpga.Snapshot, a.Shards())
	for i := range snaps {
		if snaps[i], err = a.SnapshotShard(i); err != nil {
			t.Fatal(err)
		}
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		if err := restoreShard(b, i, s); err != nil {
			t.Fatal(err)
		}
	}
	for ti, ls := range lanes {
		if err := b.RestoreLane(ti, ls); err != nil {
			t.Fatal(err)
		}
	}
	for ti := 0; ti < b.Tenants(); ti++ {
		drive(b, ti, cut, len(tasks))
	}

	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ref.Shards(); i++ {
		x, _ := json.Marshal(ref.Shard(i).Snapshot())
		y, _ := json.Marshal(b.Shard(i).Snapshot())
		if string(x) != string(y) {
			t.Fatalf("shard %d: recovered replay diverges from uninterrupted run", i)
		}
	}
	if !reflect.DeepEqual(ref.Meters(), b.Meters()) {
		t.Fatalf("meters diverge: ref %+v, recovered %+v", ref.Meters(), b.Meters())
	}
}

// TestRestoreLaneValidation: a LaneState that does not match the lane's
// shape is refused without touching the lane.
func TestRestoreLaneValidation(t *testing.T) {
	f, err := New(lanesConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ti   int
		ls   LaneState
	}{
		{"tenant out of range", 9, LaneState{Name: "alpha"}},
		{"wrong name", 0, LaneState{Name: "beta"}},
		{"rr cursor out of range", 0, LaneState{Name: "alpha", RR: 3}},
		{"rr cursor negative", 0, LaneState{Name: "alpha", RR: -1}},
		{"rr cursor on least lane", 1, LaneState{Name: "beta", RR: 1}},
		{"rng draws on rr lane", 0, LaneState{Name: "alpha", RNGDraws: 2}},
		{"rng draws on least lane", 1, LaneState{Name: "beta", RNGDraws: 2}},
		{"negative submitted", 0, LaneState{Name: "alpha", Meter: Meter{Submitted: -1}}},
		{"negative coltime", 0, LaneState{Name: "alpha", Meter: Meter{ColTime: -1}}},
		{"meter overflow", 0, LaneState{Name: "alpha", Meter: Meter{Submitted: 1, Placed: 1, Refused: 1}}},
	}
	for _, tc := range cases {
		if err := f.RestoreLane(tc.ti, tc.ls); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The failed restores left the lanes untouched.
	for ti := 0; ti < f.Tenants(); ti++ {
		ls, _ := f.LaneState(ti)
		name, _, _ := f.TenantRange(ti)
		if ls.RR != 0 || ls.RNGDraws != 0 || ls.Meter != (Meter{}) || ls.Name != name {
			t.Fatalf("tenant %d lane mutated by refused restore: %+v", ti, ls)
		}
	}
}

// TestParseTenantsQuotas covers the extended
// name:shards[:route[:maxbacklog[:maxcols]]] syntax.
func TestParseTenantsQuotas(t *testing.T) {
	got, err := ParseTenants("a:4:rr:100:8,b:2::50,c:1", RouteLeast)
	if err != nil {
		t.Fatal(err)
	}
	want := []Tenant{
		{Name: "a", Shards: 4, Route: RouteRR, MaxBacklog: 100, MaxTaskCols: 8},
		{Name: "b", Shards: 2, Route: RouteLeast, MaxBacklog: 50},
		{Name: "c", Shards: 1, Route: RouteLeast},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTenants = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"a:4:rr:-1", "a:4:rr:x", "a:4:rr:1:-2", "a:4:rr:1:y", "a:4:rr:1:2:3"} {
		if _, err := ParseTenants(bad, RouteLeast); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad)
		}
	}
}
