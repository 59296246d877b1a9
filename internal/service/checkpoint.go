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
// The file is streamed, never built whole in memory: writeCheckpoint
// encodes the shard snapshots on worker goroutines into a small pool of
// reused buffers and hashes and writes them in shard order as they come
// back, so at most 2 × GOMAXPROCS shard encodings are held at once.

import (
	"bytes"
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
	"strippack/internal/fpga"
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
// with their cumulative meters) plus every shard's canonical snapshot.
type Checkpoint struct {
	Epoch uint64
	Seq   uint64
	Shape *Info
	Lanes []fleet.LaneState
	Snaps []*fpga.Snapshot
}

// CaptureCheckpoint snapshots a quiescent fleet into a Checkpoint.
// Requires exclusive access to the fleet (the server's Checkpoint method
// holds every lane while calling this).
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
	ck.Snaps = make([]*fpga.Snapshot, f.Shards())
	for i := range ck.Snaps {
		if ck.Snaps[i], err = f.SnapshotShard(i); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// EncodeCheckpoint returns the checkpoint file bytes: the codec payload
// followed by its sha256 — exactly what WriteCheckpoint writes.
func EncodeCheckpoint(ck *Checkpoint) []byte {
	var b bytes.Buffer
	writeCheckpoint(&b, ck) // a bytes.Buffer never fails a write
	return b.Bytes()
}

// encodeClaimed, when non-nil, runs on the encode worker right after it
// claims shard i and before it encodes it. Tests set it to stall a worker
// inside that window; it is nil otherwise.
var encodeClaimed func(i int)

// writeCheckpoint streams the checkpoint file to w: the manifest, every
// shard's snapshot in shard order, then the sha256 of everything before
// it. Up to GOMAXPROCS workers encode snapshots ahead of the caller. A
// worker first takes a buffer from a pool of 2×workers, then claims the
// next shard index from an atomic counter and hands the encoding back on
// that shard's own channel, so a claimed shard always owns its buffer and
// at most 2×workers encodings exist at once. The caller hashes and writes
// each encoding in shard order and returns its buffer to the pool. On a
// write error it stops the workers, waits for them and returns the error.
func writeCheckpoint(w io.Writer, ck *Checkpoint) error {
	h := sha256.New()
	put := func(b []byte) error {
		h.Write(b) // a hash.Hash never fails a write
		_, err := w.Write(b)
		return err
	}
	if err := put(checkpointManifest(ck)); err != nil {
		return err
	}

	n := len(ck.Snaps)
	workers := min(runtime.GOMAXPROCS(0), n)
	depth := min(2*workers, n)
	pool := make(chan []byte, depth)
	for range depth {
		pool <- nil
	}
	ready := make([]chan []byte, n)
	for i := range ready {
		ready[i] = make(chan []byte, 1)
	}
	stop := make(chan struct{})
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var buf []byte
				select {
				case buf = <-pool:
				case <-stop:
					return
				}
				select {
				case <-stop: // stop wins over a free buffer
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if encodeClaimed != nil {
					encodeClaimed(i)
				}
				e := enc{b: buf[:0]}
				e.snapshot(ck.Snaps[i])
				ready[i] <- e.b // never blocks: shard i is claimed once
			}
		}()
	}
	for i := range n {
		buf := <-ready[i]
		if err := put(buf); err != nil {
			close(stop)
			wg.Wait()
			return err
		}
		pool <- buf // never blocks: at most depth buffers exist
	}
	wg.Wait()
	_, err := w.Write(h.Sum(nil))
	return err
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
	e.count(len(ck.Snaps))
	return e.b
}

// DecodeCheckpoint decodes EncodeCheckpoint's output, verifying the
// checksum and exact consumption. Structural only; Recover adds the
// semantic validation.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the checksum", ErrBadCheckpoint, len(b))
	}
	payload, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(payload); [sha256.Size]byte(trailer) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	d := &dec{b: payload}
	if v := d.uint(); d.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadCheckpoint, v, checkpointVersion)
	}
	ck := &Checkpoint{}
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
	n = d.count(8)
	if n > 0 {
		ck.Snaps = make([]*fpga.Snapshot, n)
		for i := range ck.Snaps {
			ck.Snaps[i] = d.snapshot()
		}
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return ck, nil
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

// ReadCheckpoint reads and structurally decodes a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return DecodeCheckpoint(b)
}

// Recover reads the checkpoint at path, validates it against cfg, and
// returns a freshly built fleet with every shard and lane restored —
// the daemon's -recover path. minEpoch rejects checkpoints older than
// the caller will accept (pass 1 to accept any daemon-written one;
// epoch 0 is always stale — no daemon runs at epoch 0).
//
// All-or-nothing: every restore happens on the fresh fleet, which is
// only returned after the last one succeeds, so a refused checkpoint
// (any typed error above) cannot leave partial state anywhere.
func Recover(path string, cfg fleet.Config, minEpoch uint64) (*fleet.Fleet, *Checkpoint, error) {
	ck, err := ReadCheckpoint(path)
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
	if len(ck.Snaps) != f.Shards() {
		return nil, nil, fmt.Errorf("%w: %d snapshots for %d shards", ErrBadCheckpoint, len(ck.Snaps), f.Shards())
	}
	if len(ck.Lanes) != f.Tenants() {
		return nil, nil, fmt.Errorf("%w: %d lane states for %d tenants", ErrBadCheckpoint, len(ck.Lanes), f.Tenants())
	}
	for i, s := range ck.Snaps {
		if err := f.RestoreShard(i, s); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	for ti, ls := range ck.Lanes {
		if err := f.RestoreLane(ti, ls); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	return f, ck, nil
}
