package service

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
)

// ckptConfig is the three-route tenant fleet the checkpoint tests
// exercise: rr cursor, least scores and a p2c rng all have to survive
// the file round trip.
func ckptConfig() fleet.Config {
	return fleet.Config{
		Shards: 6, Columns: 8, Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 16},
		Tenants: []fleet.Tenant{
			{Name: "alpha", Shards: 2, Route: fleet.RouteRR, MaxBacklog: 4096},
			{Name: "beta", Shards: 2, Route: fleet.RouteLeast},
			{Name: "gamma", Shards: 2, Route: fleet.RouteP2C, MaxTaskCols: 8},
		},
		Seed: 13,
	}
}

// churnFleet drives tenant ti with a deterministic stream window.
func churnFleet(t *testing.T, f *fleet.Fleet, ti, from, to int) {
	t.Helper()
	tasks := churnTrace(t, 900+int64(ti), 3000, 8, 0.8*2)
	for base := from; base < to; base += 150 {
		end := min(base+150, to)
		if _, err := f.SubmitBatchTenant(ti, fleet.Specs(tasks[base:end], base)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointFileRoundTrip: capture -> encode -> file -> Recover
// reproduces the fleet byte-identically, and the recovered fleet's tail
// replay matches the uninterrupted run — the on-disk half of the
// kill+recover+replay contract `make determinism` enforces end to end.
func TestCheckpointFileRoundTrip(t *testing.T) {
	cfg := ckptConfig()
	cut, end := 1500, 3000

	ref, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < ref.Tenants(); ti++ {
		churnFleet(t, ref, ti, 0, end)
	}

	a, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < a.Tenants(); ti++ {
		churnFleet(t, a, ti, 0, cut)
	}
	ck, err := CaptureCheckpoint(a, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.ckpt")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}

	// The encoding is deterministic: a second capture of the same state
	// produces the same bytes.
	ck2, err := CaptureCheckpoint(a, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if x, y := sha256.Sum256(EncodeCheckpoint(ck)), sha256.Sum256(EncodeCheckpoint(ck2)); x != y {
		t.Fatal("checkpoint encoding is not deterministic")
	}

	b, got, err := Recover(path, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.Seq != 7 {
		t.Fatalf("recovered epoch %d seq %d, want 3 7", got.Epoch, got.Seq)
	}
	for ti := 0; ti < b.Tenants(); ti++ {
		churnFleet(t, b, ti, cut, end)
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

// reseal recomputes the sha256 trailer after a deliberate payload edit,
// so the corruption tests can reach the validation layers beyond the
// checksum.
func reseal(b []byte) []byte {
	payload := b[:len(b)-sha256.Size]
	sum := sha256.Sum256(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// TestCheckpointCorruption is the -recover refusal table: every way a
// checkpoint file can be wrong — truncated, bit-flipped, resealed with
// bad contents, wrong fleet shape, stale epoch — is refused with its
// typed error, and (by Recover's construction) no partial restore
// escapes: the fleet is only returned on full success.
func TestCheckpointCorruption(t *testing.T) {
	cfg := ckptConfig()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < f.Tenants(); ti++ {
		churnFleet(t, f, ti, 0, 1500)
	}
	ck, err := CaptureCheckpoint(f, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := EncodeCheckpoint(ck)

	// Shape mutations for the ErrCheckpointShape cases.
	reshape := func(mut func(c *fleet.Config)) fleet.Config {
		c := cfg
		c.Tenants = append([]fleet.Tenant(nil), cfg.Tenants...)
		mut(&c)
		return c
	}
	// Content mutations for the resealed ErrBadCheckpoint cases.
	remake := func(mut func(ck *Checkpoint)) []byte {
		c := *ck
		c.Lanes = append([]fleet.LaneState(nil), ck.Lanes...)
		c.Snaps = append([]*fpga.Snapshot(nil), ck.Snaps...)
		shape := *ck.Shape
		c.Shape = &shape
		mut(&c)
		return EncodeCheckpoint(&c)
	}

	cases := []struct {
		name string
		data []byte       // file contents; nil = missing file
		cfg  fleet.Config // fleet to recover into
		min  uint64       // minEpoch
		want error
	}{
		{"missing file", nil, cfg, 1, ErrBadCheckpoint},
		{"empty file", []byte{}, cfg, 1, ErrBadCheckpoint},
		{"shorter than checksum", good[:16], cfg, 1, ErrBadCheckpoint},
		{"truncated header", good[:40], cfg, 1, ErrBadCheckpoint},
		{"truncated mid-body", good[:len(good)/2], cfg, 1, ErrBadCheckpoint},
		{"truncated tail byte", good[:len(good)-1], cfg, 1, ErrBadCheckpoint},
		{"bit flip in header", flip(good, 1), cfg, 1, ErrBadCheckpoint},
		{"bit flip mid-body", flip(good, len(good)/2), cfg, 1, ErrBadCheckpoint},
		{"bit flip in checksum", flip(good, len(good)-5), cfg, 1, ErrBadCheckpoint},
		{"trailing garbage", append(append([]byte(nil), good...), 0xAA), cfg, 1, ErrBadCheckpoint},
		{"wrong version", reseal(flip(good, 0)), cfg, 1, ErrBadCheckpoint},
		{"stale epoch zero", remake(func(c *Checkpoint) { c.Epoch = 0 }), cfg, 1, ErrStaleCheckpoint},
		{"stale epoch below min", good, cfg, 4, ErrStaleCheckpoint},
		{"wrong columns", good, reshape(func(c *fleet.Config) { c.Columns = 16 }), 1, ErrCheckpointShape},
		{"wrong shard count", good, reshape(func(c *fleet.Config) {
			c.Shards = 7
			c.Tenants[2].Shards = 3
		}), 1, ErrCheckpointShape},
		{"wrong policy", good, reshape(func(c *fleet.Config) { c.Policy = fpga.NoReclaim }), 1, ErrCheckpointShape},
		{"wrong admission", good, reshape(func(c *fleet.Config) { c.Admission.MaxBacklog = 8 }), 1, ErrCheckpointShape},
		{"wrong seed", good, reshape(func(c *fleet.Config) { c.Seed = 99 }), 1, ErrCheckpointShape},
		{"wrong tenant partition", good, reshape(func(c *fleet.Config) {
			c.Tenants[0].Shards, c.Tenants[1].Shards = 3, 1
		}), 1, ErrCheckpointShape},
		{"wrong tenant route", good, reshape(func(c *fleet.Config) { c.Tenants[1].Route = fleet.RouteP2C }), 1, ErrCheckpointShape},
		{"wrong tenant quota", good, reshape(func(c *fleet.Config) { c.Tenants[0].MaxBacklog = 1 }), 1, ErrCheckpointShape},
		{"lane count mismatch", remake(func(c *Checkpoint) { c.Lanes = c.Lanes[:2] }), cfg, 1, ErrBadCheckpoint},
		{"snapshot count mismatch", remake(func(c *Checkpoint) { c.Snaps = c.Snaps[:5] }), cfg, 1, ErrBadCheckpoint},
		{"lane name mismatch", remake(func(c *Checkpoint) { c.Lanes[0].Name = "delta" }), cfg, 1, ErrBadCheckpoint},
		{"rr cursor out of range", remake(func(c *Checkpoint) { c.Lanes[0].RR = 9 }), cfg, 1, ErrBadCheckpoint},
		{"rng draws on rr lane", remake(func(c *Checkpoint) { c.Lanes[0].RNGDraws = 4 }), cfg, 1, ErrBadCheckpoint},
		{"negative meter", remake(func(c *Checkpoint) { c.Lanes[1].Meter.Submitted = -1 }), cfg, 1, ErrBadCheckpoint},
		{"snapshot wrong geometry", remake(func(c *Checkpoint) {
			// A structurally valid snapshot from a narrower device.
			o := fpga.NewOnlineSchedulerPolicy(&fpga.Device{Columns: 4}, fpga.ReclaimCompact)
			c.Snaps[0] = o.Snapshot()
		}), cfg, 1, ErrBadCheckpoint},
		{"snapshot internally corrupt", remake(func(c *Checkpoint) {
			s := *c.Snaps[0]
			s.Done = s.Done[:0] // length no longer matches Tasks
			c.Snaps[0] = &s
		}), cfg, 1, ErrBadCheckpoint},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		path := filepath.Join(dir, tc.name)
		if tc.data != nil {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, ckGot, err := Recover(path, tc.cfg, tc.min)
		if !errors.Is(err, tc.want) {
			t.Errorf("case %d %q: err = %v, want %v", i, tc.name, err, tc.want)
		}
		if got != nil || ckGot != nil {
			t.Errorf("case %d %q: refused recovery returned state", i, tc.name)
		}
	}

	// And the untouched original still recovers.
	path := filepath.Join(dir, "good")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(path, cfg, 3); err != nil {
		t.Fatalf("pristine checkpoint refused: %v", err)
	}
}

// flip returns a copy of b with one bit flipped at offset i.
func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// TestWriteCheckpointAtomic: the writer never leaves a torn file — a
// rewrite over an existing checkpoint either keeps the old bytes or has
// the new ones, and temp files do not accumulate.
func TestWriteCheckpointAtomic(t *testing.T) {
	cfg := ckptConfig()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck1, err := CaptureCheckpoint(f, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	churnFleet(t, f, 0, 0, 300)
	ck2, err := CaptureCheckpoint(f, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.ckpt")
	if err := WriteCheckpoint(path, ck1); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(path, ck2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 {
		t.Fatalf("read back seq %d, want 2", got.Seq)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want 1", len(ents))
	}
}
