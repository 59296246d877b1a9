package fleet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"strippack/internal/faultinject"
	"strippack/internal/fpga"
)

// restoreShard swaps a scheduler restored from s into slot i the way
// recovery does: through the snapshot's bytes.
func restoreShard(f *Fleet, i int, s *fpga.Snapshot) error {
	_, err := f.RestoreShardBytes(i, fpga.AppendSnapshot(nil, s))
	return err
}

// TestFleetFailoverReplay is the failover determinism contract: crash one
// shard mid-churn (serialize → restore through faultinject.Crash), swap
// the restored engine in through Fleet.RestoreShardBytes, and the fleet's
// canonical snapshots and final stats must be byte-identical to an
// uninterrupted run of the same trace — for every route × admission
// config combination.
func TestFleetFailoverReplay(t *testing.T) {
	const (
		K      = 8
		shards = 4
		chunk  = 200
	)
	tasks := churnTrace(t, 61, 6000, K, 0.85*shards)
	admissions := []fpga.AdmissionConfig{
		{Policy: fpga.AdmitAll},
		{Policy: fpga.AdmitBounded, MaxBacklog: 16},
		{Policy: fpga.AdmitShed, MaxBacklog: 16},
	}
	for _, route := range []Route{RouteRR, RouteLeast, RouteP2C} {
		for _, ac := range admissions {
			cfg := Config{
				Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
				Admission: ac, Route: route, Seed: 13,
			}
			run := func(crashAt, crashShard int) (*Stats, [][]byte) {
				f, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for base := 0; base < len(tasks); base += chunk {
					if base == crashAt {
						// Crash-restart the shard: faultinject.Crash
						// serializes through the JSON snapshot, restores,
						// and verifies re-serialization fidelity; the
						// restored engine's canonical snapshot is then
						// installed into the slot.
						h := faultinject.New(f.Shard(crashShard), -1)
						if err := h.Crash(); err != nil {
							t.Fatal(err)
						}
						if err := restoreShard(f, crashShard, h.Sched.Snapshot()); err != nil {
							t.Fatal(err)
						}
					}
					end := min(base+chunk, len(tasks))
					if _, err := f.SubmitBatch(Specs(tasks[base:end], base)); err != nil {
						t.Fatal(err)
					}
				}
				st, err := f.Finish()
				if err != nil {
					t.Fatal(err)
				}
				snaps := make([][]byte, shards)
				for i := range snaps {
					snap, err := f.SnapshotShard(i)
					if err != nil {
						t.Fatal(err)
					}
					snaps[i], _ = json.Marshal(snap)
				}
				return st, snaps
			}
			refStats, refSnaps := run(-1, 0)
			gotStats, gotSnaps := run(len(tasks)/2/chunk*chunk, 1)
			if !reflect.DeepEqual(gotStats, refStats) {
				t.Fatalf("route %v admission %v: stats diverge after failover\n%+v\nvs\n%+v",
					route, ac.Policy, gotStats, refStats)
			}
			for i := range refSnaps {
				if string(gotSnaps[i]) != string(refSnaps[i]) {
					t.Fatalf("route %v admission %v: shard %d snapshot diverges after failover",
						route, ac.Policy, i)
				}
			}
		}
	}
}

// TestRestoreShardValidation: RestoreShardBytes must refuse snapshots
// that do not match the slot's shape, and out-of-range indices, without
// swapping the slot.
func TestRestoreShardValidation(t *testing.T) {
	f, err := New(Config{
		Shards: 2, ShardCols: []int{8, 16}, Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 4},
		Route:     RouteLeast,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap0, err := f.SnapshotShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SnapshotShard(2); err == nil {
		t.Fatal("SnapshotShard(2) accepted on a 2-shard fleet")
	}
	if _, err := f.SnapshotShard(-1); err == nil {
		t.Fatal("SnapshotShard(-1) accepted")
	}
	shard0, shard1 := f.Shard(0), f.Shard(1)
	if err := restoreShard(f, 2, snap0); err == nil {
		t.Fatal("RestoreShardBytes(2) accepted on a 2-shard fleet")
	}
	// Shard 0's 8-column snapshot must not restore into 16-column slot 1.
	if err := restoreShard(f, 1, snap0); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("cross-geometry restore: got %v, want column mismatch", err)
	}
	// A corrupted snapshot must fail fpga validation before any swap.
	bad := *snap0
	bad.Columns = -3
	if err := restoreShard(f, 0, &bad); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
	// Policy and admission mismatches are shape errors too.
	wrongPolicy := *snap0
	wrongPolicy.Policy = fpga.NoReclaim
	if err := restoreShard(f, 0, &wrongPolicy); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("policy mismatch: got %v", err)
	}
	wrongAdm := *snap0
	wrongAdm.Admission = fpga.AdmissionConfig{Policy: fpga.AdmitAll}
	if err := restoreShard(f, 0, &wrongAdm); err == nil || !strings.Contains(err.Error(), "admission") {
		t.Fatalf("admission mismatch: got %v", err)
	}
	// Nothing above may have swapped a slot.
	if f.Shard(0) != shard0 || f.Shard(1) != shard1 {
		t.Fatal("a refused restore swapped a slot")
	}
	// And the valid round trip works.
	if err := restoreShard(f, 0, snap0); err != nil {
		t.Fatal(err)
	}
	if f.Shard(0) == shard0 || f.Shard(1) != shard1 {
		t.Fatal("a restore of shard 0 did not swap exactly slot 0")
	}
}
