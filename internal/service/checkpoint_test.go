package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
)

// EncodeCheckpoint returns the checkpoint file bytes: the codec payload
// followed by its sha256, through the same writer WriteCheckpoint streams
// to disk.
func EncodeCheckpoint(ck *Checkpoint) []byte {
	var b bytes.Buffer
	writeCheckpoint(&b, ck) // a bytes.Buffer never fails a write
	return b.Bytes()
}

// DecodeCheckpoint decodes a checkpoint file's bytes, verifying the
// checksum and exact consumption: the structural reader the tests check
// files with. Each shard's bytes decode into a snapshot
// (fpga.DecodeSnapshot) and are stored re-encoded, so a decoded
// checkpoint is canonical; Recover adds the semantic validation.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	ck, shards, rest, err := decodeManifest(b)
	if err != nil {
		return nil, err
	}
	if shards > 0 {
		ck.Shards = make([][]byte, shards)
	}
	for i := range ck.Shards {
		s, r, err := fpga.DecodeSnapshot(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrBadCheckpoint, i, err)
		}
		ck.Shards[i], rest = EncodeSnapshot(s), r
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(rest))
	}
	return ck, nil
}

// ReadCheckpoint reads and structurally decodes a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return DecodeCheckpoint(b)
}

// corruptShard re-encodes shard i of ck with its Done slice emptied: a
// snapshot that decodes but fails validation.
func corruptShard(t *testing.T, ck *Checkpoint, i int) {
	t.Helper()
	s, _, err := fpga.DecodeSnapshot(ck.Shards[i])
	if err != nil {
		t.Fatal(err)
	}
	s.Done = s.Done[:0] // length no longer matches Tasks
	ck.Shards[i] = EncodeSnapshot(s)
}

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
func churnFleet(t testing.TB, f *fleet.Fleet, ti, from, to int) {
	t.Helper()
	tasks := churnTrace(t, 900+int64(ti), 3000, 8, 0.8*2)
	for base := from; base < to; base += 150 {
		end := min(base+150, to)
		if _, err := f.SubmitBatchTenant(ti, fleet.Specs(tasks[base:end], base)); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenCkptSize and goldenCkptSHA256 pin TestCheckpointFileRoundTrip's
// checkpoint file: ckptConfig() churned to cut 1500, captured at epoch 3,
// seq 7.
const (
	goldenCkptSize   = 181039
	goldenCkptSHA256 = "b8cc16cf98991b694c1e330e1dffa2a104a2916790533e3fc197fce0f0217bcf"
)

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

	// The file format is pinned: this fixture's file must not change by a
	// byte unless the format is meant to (which needs a new version).
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(file)); len(file) != goldenCkptSize || sum != goldenCkptSHA256 {
		t.Fatalf("checkpoint file is %d bytes with sha256 %s, want %d bytes with %s",
			len(file), sum, goldenCkptSize, goldenCkptSHA256)
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

// TestServerCheckpoint: each Server.Checkpoint runs the server's
// checkpointer once, under every lane, and returns the server's epoch
// with the checkpointer's sequence number; the file it wrote recovers the
// served fleet byte for byte. Without a checkpointer the call fails.
func TestServerCheckpoint(t *testing.T) {
	cfg := ckptConfig()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < f.Tenants(); ti++ {
		churnFleet(t, f, ti, 0, 600)
	}
	const epoch = 5
	srv := NewServer(Local{Fleet: f})
	srv.SetEpoch(epoch)
	path := filepath.Join(t.TempDir(), "checkpoint.ckpt")
	var runs, seq uint64
	srv.SetCheckpointer(func() (uint64, error) {
		runs++
		ck, err := CaptureCheckpoint(f, epoch, runs+10)
		if err != nil {
			return 0, err
		}
		seq = ck.Seq
		return seq, WriteCheckpoint(path, ck)
	})
	cc, sc := net.Pipe()
	go srv.Serve(sc)
	c := NewClient(cc)
	defer c.Close()

	tasks := churnTrace(t, 901, 3000, 8, 0.8*2)
	for call := uint64(1); call <= 2; call++ {
		if call == 2 {
			// Move tenant beta on through the wire between the two calls.
			if _, err := c.Submit(1, fleet.Specs(tasks[600:750], 600)); err != nil {
				t.Fatal(err)
			}
		}
		gotEpoch, got, err := srv.Checkpoint()
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if gotEpoch != epoch || got != seq {
			t.Fatalf("call %d: Checkpoint = epoch %d seq %d, want %d %d", call, gotEpoch, got, epoch, seq)
		}
		if runs != call {
			t.Fatalf("call %d: checkpointer ran %d times", call, runs)
		}
	}

	b, ck, err := Recover(path, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != epoch || ck.Seq != seq {
		t.Fatalf("file holds epoch %d seq %d, want %d %d", ck.Epoch, ck.Seq, epoch, seq)
	}
	for i := 0; i < f.Shards(); i++ {
		if !bytes.Equal(EncodeSnapshot(b.Shard(i).Snapshot()), EncodeSnapshot(f.Shard(i).Snapshot())) {
			t.Fatalf("shard %d: recovered snapshot differs from the served fleet's", i)
		}
	}
	if !reflect.DeepEqual(b.Meters(), f.Meters()) {
		t.Fatalf("meters diverge: served %+v, recovered %+v", f.Meters(), b.Meters())
	}

	if _, _, err := NewServer(Local{Fleet: f}).Checkpoint(); err == nil {
		t.Fatal("Checkpoint without a checkpointer succeeded")
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
	// Content mutations for the resealed ErrBadCheckpoint cases. A shard
	// is swapped or corrupted by encoding the altered snapshot into its
	// slot.
	remake := func(mut func(ck *Checkpoint)) []byte {
		c := *ck
		c.Lanes = append([]fleet.LaneState(nil), ck.Lanes...)
		c.Shards = append([][]byte(nil), ck.Shards...)
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
		{"snapshot count mismatch", remake(func(c *Checkpoint) { c.Shards = c.Shards[:5] }), cfg, 1, ErrBadCheckpoint},
		{"lane name mismatch", remake(func(c *Checkpoint) { c.Lanes[0].Name = "delta" }), cfg, 1, ErrBadCheckpoint},
		{"rr cursor out of range", remake(func(c *Checkpoint) { c.Lanes[0].RR = 9 }), cfg, 1, ErrBadCheckpoint},
		{"rng draws on rr lane", remake(func(c *Checkpoint) { c.Lanes[0].RNGDraws = 4 }), cfg, 1, ErrBadCheckpoint},
		{"negative meter", remake(func(c *Checkpoint) { c.Lanes[1].Meter.Submitted = -1 }), cfg, 1, ErrBadCheckpoint},
		{"snapshot wrong geometry", remake(func(c *Checkpoint) {
			// A structurally valid snapshot from a narrower device.
			o := fpga.NewOnlineSchedulerPolicy(&fpga.Device{Columns: 4}, fpga.ReclaimCompact)
			c.Shards[0] = EncodeSnapshot(o.Snapshot())
		}), cfg, 1, ErrBadCheckpoint},
		{"snapshot internally corrupt", remake(func(c *Checkpoint) { corruptShard(t, c, 0) }), cfg, 1, ErrBadCheckpoint},
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

	// With several bad shards the reported one is the lowest, whatever
	// GOMAXPROCS is.
	twoBad := remake(func(c *Checkpoint) {
		for _, i := range []int{4, 1} {
			corruptShard(t, c, i)
		}
	})
	twoBadPath := filepath.Join(dir, "shards 1 and 4 invalid")
	if err := os.WriteFile(twoBadPath, twoBad, 0o644); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		got, ckGot, err := Recover(twoBadPath, cfg, 1)
		if !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), "restore shard 1:") {
			t.Errorf("shards 1 and 4 invalid, GOMAXPROCS %d: err = %v, want shard 1's ErrBadCheckpoint", procs, err)
		}
		if got != nil || ckGot != nil {
			t.Errorf("shards 1 and 4 invalid, GOMAXPROCS %d: refused recovery returned state", procs)
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

// wideCkptConfig is a 64-shard fleet: many more shards than capture has
// encode goroutines, so each goroutine encodes many shards.
func wideCkptConfig() fleet.Config {
	return fleet.Config{
		Shards: 64, Columns: 8, Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 16},
		Route:     fleet.RouteLeast, Seed: 3,
	}
}

// wideCkptFleet is a wideCkptConfig fleet with some history on every shard.
func wideCkptFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(wideCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	tasks := churnTrace(t, 41, 6400, 8, 0.85*64)
	for base := 0; base < len(tasks); base += 640 {
		if _, err := f.SubmitBatch(fleet.Specs(tasks[base:min(base+640, len(tasks))], base)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// ckptFleets returns the checkpoint tests' 1-, 6- and 64-shard fleets,
// each with some history.
func ckptFleets(t *testing.T) map[string]*fleet.Fleet {
	t.Helper()
	one, err := fleet.New(fleet.Config{Shards: 1, Columns: 8, Policy: fpga.ReclaimCompact})
	if err != nil {
		t.Fatal(err)
	}
	churnFleet(t, one, 0, 0, 600)
	six, err := fleet.New(ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < six.Tenants(); ti++ {
		churnFleet(t, six, ti, 0, 900)
	}
	return map[string]*fleet.Fleet{"1 shard": one, "6 shards": six, "64 shards": wideCkptFleet(t)}
}

// serialCheckpoint is f's checkpoint file encoded on one goroutine from
// snapshots, shard after shard, with ck's manifest: the reference capture
// and write must reproduce.
func serialCheckpoint(f *fleet.Fleet, ck *Checkpoint) []byte {
	b := checkpointManifest(ck)
	for i := 0; i < f.Shards(); i++ {
		b = append(b, EncodeSnapshot(f.Shard(i).Snapshot())...)
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// TestEncodeCheckpointMatchesWrite: capturing on one goroutine or
// several, for 1, 6 or 64 shards, gives exactly the file a serial encode
// of the shards' snapshots gives, and WriteCheckpoint writes exactly
// EncodeCheckpoint's bytes.
func TestEncodeCheckpointMatchesWrite(t *testing.T) {
	fleets := ckptFleets(t)
	dir := t.TempDir()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for name, f := range fleets {
			ck, err := CaptureCheckpoint(f, 2, 9)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "checkpoint.ckpt")
			if err := WriteCheckpoint(path, ck); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(EncodeCheckpoint(ck), file) {
				t.Errorf("GOMAXPROCS %d, %s: EncodeCheckpoint differs from the written file", procs, name)
			}
			if !bytes.Equal(serialCheckpoint(f, ck), file) {
				t.Errorf("GOMAXPROCS %d, %s: the written file differs from the serial encode", procs, name)
			}
		}
	}
}

// TestCaptureCheckpointFromRecords: capture encodes every shard straight
// from its records, so each shard's captured bytes are exactly
// EncodeSnapshot(f.SnapshotShard(i)) (on the 1-, 6- and 64-shard
// fleets), and it allocates little beyond them: at most 1.1 times the
// shards' total bytes plus 64 KiB for the manifest's values and the
// goroutines. A capture that built each shard's fpga.Snapshot first would
// allocate about 2.2 times the shard bytes.
func TestCaptureCheckpointFromRecords(t *testing.T) {
	for name, f := range ckptFleets(t) {
		ck, err := CaptureCheckpoint(f, 2, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(ck.Shards) != f.Shards() {
			t.Fatalf("%s: captured %d shards of %d", name, len(ck.Shards), f.Shards())
		}
		for i := range ck.Shards {
			snap, err := f.SnapshotShard(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := EncodeSnapshot(snap); !bytes.Equal(ck.Shards[i], want) {
				t.Errorf("%s: shard %d captured %d bytes, EncodeSnapshot gives %d", name, i, len(ck.Shards[i]), len(want))
			}
			if len(ck.Shards[i]) != f.Shard(i).SnapshotLen() {
				t.Errorf("%s: shard %d: SnapshotLen %d, encoding %d bytes", name, i, f.Shard(i).SnapshotLen(), len(ck.Shards[i]))
			}
		}
	}

	f := wideCkptFleet(t)
	ck, err := CaptureCheckpoint(f, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range ck.Shards {
		total += len(b)
	}
	// The least of three captures, so an allocation elsewhere in the
	// process cannot fail the test.
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := CaptureCheckpoint(f, 2, 9); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(total)*11/10 + 64<<10; least > limit {
		t.Errorf("capture of %d shard bytes allocated %d bytes, over the %d ceiling", total, least, limit)
	}
	t.Logf("capture of %d shard bytes allocated %d bytes (%.3f x)", total, least, float64(least)/float64(total))
}

// errInjected is the failure failWriter injects.
var errInjected = errors.New("injected write failure")

// failWriter passes the first n bytes through to w, then fails.
type failWriter struct {
	w io.Writer
	n int
}

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	k, _ := f.w.Write(p[:f.n])
	f.n = 0
	return k, errInjected
}

// settledGoroutines returns the goroutine count once it is at most want,
// or after a second. A worker that has already signalled its WaitGroup
// may still be exiting when the writer returns; a leaked one, blocked for
// good, keeps the count up.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// failedWriteIntact checks what a failed checkpoint write must leave
// behind in dir: no temp file, no encoder goroutine beyond the goroutines
// counted before the write, and prevFile at prevPath, still recoverable
// under cfg.
func failedWriteIntact(t *testing.T, name, dir string, goroutines int, cfg fleet.Config, prevPath string, prevFile []byte) {
	t.Helper()
	if tmp, _ := filepath.Glob(filepath.Join(dir, ".ckpt-*")); len(tmp) != 0 {
		t.Errorf("%s: temp files left behind: %v", name, tmp)
	}
	if n := settledGoroutines(goroutines); n > goroutines {
		t.Errorf("%s: %d goroutines after the failed write, %d before", name, n, goroutines)
	}
	if b, err := os.ReadFile(prevPath); err != nil || !bytes.Equal(b, prevFile) {
		t.Errorf("%s: previous checkpoint changed (read error %v)", name, err)
	}
	if _, _, err := Recover(prevPath, cfg, 1); err != nil {
		t.Errorf("%s: previous checkpoint no longer recovers: %v", name, err)
	}
}

// streamFaults fails WriteCheckpoint's stream of ck over the checkpoint
// prev already written at path, at byte 0, inside the manifest, inside the
// first, a middle and the last shard, and at the sha256 trailer.
func streamFaults(t *testing.T, label string, cfg fleet.Config, path string, prev, ck *Checkpoint) {
	t.Helper()
	trailer := len(EncodeCheckpoint(ck)) - sha256.Size
	shard := make([]int, len(ck.Shards)+1) // shard i's bytes are [shard[i], shard[i+1])
	shard[len(ck.Shards)] = trailer
	for i := len(ck.Shards) - 1; i >= 0; i-- {
		shard[i] = shard[i+1] - len(ck.Shards[i])
	}
	inside := func(i int) int { return (shard[i] + shard[i+1]) / 2 }
	offsets := []struct {
		name string
		n    int // bytes written before the failure
	}{
		{"byte 0", 0},
		{"inside the manifest", shard[0] / 2},
		{"inside the first shard", inside(0)},
		{"inside a middle shard", inside(len(ck.Shards) / 2)},
		{"inside the last shard", inside(len(ck.Shards) - 1)},
		{"at the trailer", trailer},
	}
	prevFile := EncodeCheckpoint(prev)
	for _, o := range offsets {
		name := fmt.Sprintf("%s, fail %s", label, o.name)
		before := runtime.NumGoroutine()
		err := writeFileAtomic(path, func(w io.Writer) error {
			return writeCheckpoint(&failWriter{w: w, n: o.n}, ck)
		})
		if !errors.Is(err, errInjected) {
			t.Errorf("%s: err = %v, want the injected failure", name, err)
		}
		failedWriteIntact(t, name, filepath.Dir(path), before, cfg, path, prevFile)
	}
}

// TestWriteCheckpointFaults is the writer's disk-fault table: a write
// that fails anywhere in the stream (through the io.Writer seam, under
// WriteCheckpoint's own temp-file handling), a temp file that cannot be
// created and a rename that cannot happen. Every failure returns its
// error, leaves no temp file and no goroutine behind, and leaves the
// previous checkpoint byte-identical and recoverable. The stream faults
// run on 6 shards captured at GOMAXPROCS 1 and 4, and on 64 shards
// captured at 4.
func TestWriteCheckpointFaults(t *testing.T) {
	cfg := ckptConfig()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < f.Tenants(); ti++ {
		churnFleet(t, f, ti, 0, 900)
	}
	prev, err := CaptureCheckpoint(f, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	prevFile := EncodeCheckpoint(prev)
	for ti := 0; ti < f.Tenants(); ti++ {
		churnFleet(t, f, ti, 900, 1500)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.ckpt")
	if err := WriteCheckpoint(path, prev); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ck *Checkpoint
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if ck, err = CaptureCheckpoint(f, 1, 2); err != nil {
			t.Fatal(err)
		}
		streamFaults(t, fmt.Sprintf("6 shards, GOMAXPROCS %d", procs), cfg, path, prev, ck)
	}

	wide := wideCkptFleet(t)
	wprev, err := CaptureCheckpoint(wide, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wck, err := CaptureCheckpoint(wide, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wpath := filepath.Join(t.TempDir(), "checkpoint.ckpt")
	if err := WriteCheckpoint(wpath, wprev); err != nil {
		t.Fatal(err)
	}
	streamFaults(t, "64 shards, GOMAXPROCS 4", wideCkptConfig(), wpath, wprev, wck)

	// CreateTemp fails: the target directory does not exist.
	before := runtime.NumGoroutine()
	missing := filepath.Join(dir, "missing", "checkpoint.ckpt")
	if err := WriteCheckpoint(missing, ck); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	failedWriteIntact(t, "missing directory", dir, before, cfg, path, prevFile)

	// Rename fails: the target is a directory, holding the previous
	// checkpoint so it is not empty.
	taken := filepath.Join(dir, "taken")
	if err := os.Mkdir(taken, 0o755); err != nil {
		t.Fatal(err)
	}
	inside := filepath.Join(taken, "checkpoint.ckpt")
	if err := WriteCheckpoint(inside, prev); err != nil {
		t.Fatal(err)
	}
	before = runtime.NumGoroutine()
	if err := WriteCheckpoint(taken, ck); err == nil {
		t.Error("rename over a non-empty directory succeeded")
	}
	failedWriteIntact(t, "rename onto a directory", dir, before, cfg, inside, prevFile)
	if ents, err := os.ReadDir(taken); err != nil || len(ents) != 1 {
		t.Errorf("target directory now holds %d entries (read error %v), want 1", len(ents), err)
	}

	// The fault-free write still lands afterwards.
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCheckpoint(path); err != nil || got.Seq != 2 {
		t.Fatalf("final write: seq %v, err %v", got, err)
	}
}
