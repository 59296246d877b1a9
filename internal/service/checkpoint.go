package service

// Durable checkpointing: the on-disk image of a whole fleet, written by
// cmd/placementd periodically and on shutdown, consumed by -recover.
//
// A checkpoint is one file in the service wire codec (the same
// deterministic encoding the protocol uses, so a shard's snapshot bytes
// on disk are exactly its opSnapData bytes):
//
//	payload  = version:uvarint epoch:uvarint seq:uvarint
//	           shape:info
//	           nLanes:uvarint laneState*
//	           nShards:uvarint snapshot*
//	file     = payload sha256(payload)
//
// The manifest half (epoch, shape, lane states with their meters) makes
// recovery self-validating: -recover refuses a checkpoint whose shape
// differs from the daemon's configured fleet (ErrCheckpointShape), whose
// bytes fail the checksum or don't decode exactly (ErrBadCheckpoint), or
// whose epoch is stale (ErrStaleCheckpoint). Validation happens against
// a freshly built fleet that is discarded on error, so a refused
// checkpoint never leaves a partially restored daemon.
//
// Checkpoints are written atomically (temp file + rename in the same
// directory), and only at batch barriers (the server holds every lane
// while capturing), so a crash at any instant leaves either the old or
// the new checkpoint — never a torn one — and a recovered fleet resumes
// byte-identically: canonical snapshots restore shard state, LaneState
// replays routing cursors/rngs/meters, and `make determinism` pins
// kill+recover+replay against the uninterrupted run.
//
// A checkpoint is read and written straight from the shards' task
// records, with no fpga.Snapshot built. CaptureCheckpoint sizes every
// shard's snapshot bytes (fpga.OnlineScheduler.SnapshotLen), allocates
// them as one buffer and encodes the shards into their exact slices on
// up to GOMAXPROCS goroutines. WriteCheckpoint then only hashes and
// writes: the manifest, the shard bytes in shard order, the sha256.
// Recover checks the checksum, epoch and shape first, then decodes each
// shard's bytes straight into a fresh scheduler's records
// (fleet.RestoreShardBytes).

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"strippack/internal/fleet"
)

// checkpointVersion is the on-disk format version.
const checkpointVersion = 1

// Typed recovery errors: every way a checkpoint can be refused maps to
// exactly one of these (wrapped with detail), so -recover's caller and
// the corruption table tests can dispatch on errors.Is.
var (
	// ErrBadCheckpoint marks a checkpoint file that is unreadable,
	// fails its checksum, does not decode exactly, or whose contents
	// fail semantic validation (snapshot or lane restore).
	ErrBadCheckpoint = errors.New("service: bad checkpoint")
	// ErrCheckpointShape marks a structurally valid checkpoint whose
	// fleet shape differs from the configured fleet.
	ErrCheckpointShape = errors.New("service: checkpoint shape mismatch")
	// ErrStaleCheckpoint marks a checkpoint whose epoch is below the
	// minimum the caller will accept (or zero, which no daemon writes).
	ErrStaleCheckpoint = errors.New("service: stale checkpoint")
)

// Checkpoint is the in-memory image of a checkpoint file: the run
// manifest (epoch, write sequence, fleet shape, per-tenant lane states
// with their cumulative meters) plus every shard's canonical snapshot
// bytes, in shard order.
type Checkpoint struct {
	Epoch  uint64
	Seq    uint64
	Shape  *Info
	Lanes  []fleet.LaneState
	Shards [][]byte
}

// CaptureCheckpoint captures a quiescent fleet into a Checkpoint.
// Requires exclusive access to the fleet (the server's Checkpoint method
// holds every lane while calling this). The shards' snapshot bytes share
// one allocation of exactly their total size: each shard is sized, then
// encoded into its own slice of it, both on up to GOMAXPROCS goroutines.
func CaptureCheckpoint(f *fleet.Fleet, epoch, seq uint64) (*Checkpoint, error) {
	in, err := (Local{Fleet: f}).Info()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{Epoch: epoch, Seq: seq, Shape: in.Shape()}
	ck.Lanes = make([]fleet.LaneState, f.Tenants())
	for ti := range ck.Lanes {
		if ck.Lanes[ti], err = f.LaneState(ti); err != nil {
			return nil, err
		}
	}
	n := f.Shards()
	off := make([]int, n+1) // shard i's bytes are buf[off[i]:off[i+1]]
	forEachShard(n, func(i int) { off[i+1] = f.Shard(i).SnapshotLen() })
	for i := range n {
		off[i+1] += off[i]
	}
	buf := make([]byte, off[n])
	ck.Shards = make([][]byte, n)
	forEachShard(n, func(i int) {
		// The capacity stops at the shard's end, so an encoding longer
		// than SnapshotLen would move out rather than overrun its neighbor.
		ck.Shards[i] = f.Shard(i).AppendSnapshot(buf[off[i]:off[i]:off[i+1]])
	})
	return ck, nil
}

// forEachShard calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, which claim indices from a shared counter. Each call must
// touch only shard i's state.
func forEachShard(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// writeCheckpoint writes the checkpoint file to w: the manifest, every
// shard's snapshot bytes in shard order, then the sha256 of everything
// before it. It only hashes and writes; the bytes are CaptureCheckpoint's.
// A second goroutine hashes while this one writes, and is always waited
// for, so a failed write leaves no goroutine behind.
func writeCheckpoint(w io.Writer, ck *Checkpoint) error {
	manifest := checkpointManifest(ck)
	sum := make(chan []byte, 1)
	go func() {
		h := sha256.New()
		h.Write(manifest) // a hash.Hash never fails a write
		for _, b := range ck.Shards {
			h.Write(b)
		}
		sum <- h.Sum(nil)
	}()
	err := writeAll(w, manifest, ck.Shards)
	trailer := <-sum
	if err != nil {
		return err
	}
	_, err = w.Write(trailer)
	return err
}

// writeAll writes head and then each of parts to w, stopping at the first
// error.
func writeAll(w io.Writer, head []byte, parts [][]byte) error {
	if _, err := w.Write(head); err != nil {
		return err
	}
	for _, b := range parts {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// checkpointManifest encodes the payload's head: version, epoch, seq,
// shape, the lane states and the shard count.
func checkpointManifest(ck *Checkpoint) []byte {
	var e enc
	e.uint(checkpointVersion)
	e.uint(ck.Epoch)
	e.uint(ck.Seq)
	e.info(ck.Shape)
	e.count(len(ck.Lanes))
	for i := range ck.Lanes {
		e.laneState(&ck.Lanes[i])
	}
	e.count(len(ck.Shards))
	return e.b
}

// decodeManifest checks a checkpoint file's sha256 trailer and decodes
// its manifest. It returns the Checkpoint without its shards, the shard
// count, and the payload bytes after the manifest, which hold the shards'
// snapshot bytes back to back.
func decodeManifest(b []byte) (ck *Checkpoint, shards int, rest []byte, err error) {
	if len(b) < sha256.Size {
		return nil, 0, nil, fmt.Errorf("%w: %d bytes is shorter than the checksum", ErrBadCheckpoint, len(b))
	}
	payload, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(payload); [sha256.Size]byte(trailer) != sum {
		return nil, 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	d := &dec{b: payload}
	if v := d.uint(); d.err == nil && v != checkpointVersion {
		return nil, 0, nil, fmt.Errorf("%w: version %d, want %d", ErrBadCheckpoint, v, checkpointVersion)
	}
	ck = &Checkpoint{}
	ck.Epoch = d.uint()
	ck.Seq = d.uint()
	ck.Shape = d.info()
	n := d.count(4)
	if n > 0 {
		ck.Lanes = make([]fleet.LaneState, n)
		for i := range ck.Lanes {
			ck.Lanes[i] = d.laneState()
		}
	}
	shards = d.count(1)
	if d.err != nil {
		return nil, 0, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, d.err)
	}
	return ck, shards, d.b, nil
}

// WriteCheckpoint atomically writes the checkpoint file: stream it to a
// temp file in the target directory, then an fsync-free rename over the
// final path. A crash or error mid-write leaves the previous checkpoint
// intact and no temp file behind.
func WriteCheckpoint(path string, ck *Checkpoint) error {
	return writeFileAtomic(path, func(w io.Writer) error { return writeCheckpoint(w, ck) })
}

// writeFileAtomic runs write against a temp file in path's directory and
// renames the result over path, removing the temp file on any error.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Recover reads the checkpoint at path, validates it against cfg, and
// returns a freshly built fleet with every shard and lane restored —
// the daemon's -recover path. minEpoch rejects checkpoints older than
// the caller will accept (pass 1 to accept any daemon-written one;
// epoch 0 is always stale — no daemon runs at epoch 0). The checksum,
// epoch and shape are checked before any shard is decoded; each shard's
// bytes then decode straight into its scheduler. The returned Checkpoint
// holds the manifest only: its shards live in the fleet, so Shards is
// nil.
//
// All-or-nothing: every restore happens on the fresh fleet, which is
// only returned after the last one succeeds, so a refused checkpoint
// (any typed error above) cannot leave partial state anywhere.
func Recover(path string, cfg fleet.Config, minEpoch uint64) (*fleet.Fleet, *Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	ck, shards, rest, err := decodeManifest(b)
	if err != nil {
		return nil, nil, err
	}
	if minEpoch < 1 {
		minEpoch = 1
	}
	if ck.Epoch < minEpoch {
		return nil, nil, fmt.Errorf("%w: epoch %d, want >= %d", ErrStaleCheckpoint, ck.Epoch, minEpoch)
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	want, err := (Local{Fleet: f}).Info()
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(ck.Shape, want.Shape()) {
		return nil, nil, fmt.Errorf("%w: checkpoint %+v, configured %+v", ErrCheckpointShape, ck.Shape, want.Shape())
	}
	if shards != f.Shards() {
		return nil, nil, fmt.Errorf("%w: %d snapshots for %d shards", ErrBadCheckpoint, shards, f.Shards())
	}
	if len(ck.Lanes) != f.Tenants() {
		return nil, nil, fmt.Errorf("%w: %d lane states for %d tenants", ErrBadCheckpoint, len(ck.Lanes), f.Tenants())
	}
	for i := range shards {
		if rest, err = f.RestoreShardBytes(i, rest); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(rest))
	}
	for ti, ls := range ck.Lanes {
		if err := f.RestoreLane(ti, ls); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	return f, ck, nil
}
