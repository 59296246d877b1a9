package service

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
)

// redialer is the restartable-daemon stand-in for the reconnect tests: a
// dial function over net.Pipe whose backing Server can be severed
// (connections cut) or swapped (daemon restarted at a new epoch).
type redialer struct {
	mu    sync.Mutex
	srv   *Server
	conns []io.Closer
	dials int
}

func (rd *redialer) dial() (io.ReadWriter, error) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	rd.dials++
	if rd.srv == nil {
		return nil, errors.New("daemon down")
	}
	cc, sc := net.Pipe()
	go rd.srv.Serve(sc)
	rd.conns = append(rd.conns, cc)
	return cc, nil
}

// kill severs every open connection; down additionally refuses new dials
// until swap installs a server again.
func (rd *redialer) kill(down bool) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	for _, c := range rd.conns {
		c.Close()
	}
	rd.conns = nil
	if down {
		rd.srv = nil
	}
}

func (rd *redialer) swap(srv *Server) {
	rd.mu.Lock()
	rd.srv = srv
	rd.mu.Unlock()
}

func (rd *redialer) dialCount() int {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return rd.dials
}

// fastRetry keeps the reconnect loop instant in tests.
func fastRetry(attempts int) RetryConfig {
	return RetryConfig{Attempts: attempts, Base: time.Millisecond, Sleep: func(time.Duration) {}}
}

// TestClientIdempotentRetry: idempotent requests survive a severed
// connection transparently — the caller sees a successful Info or
// SnapshotShard, not a transport error — and the epoch sticks while the
// same daemon serves.
func TestClientIdempotentRetry(t *testing.T) {
	f, err := fleet.New(ckptConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Local{Fleet: f})
	srv.SetEpoch(1)
	rd := &redialer{srv: srv}
	c, err := Dial(rd.dial, fastRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Epoch() != 1 {
		t.Fatalf("handshake epoch %d, want 1", c.Epoch())
	}
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	rd.kill(false)
	in, err := c.Info()
	if err != nil {
		t.Fatalf("Info after severed connection: %v", err)
	}
	if in.Shards != 6 {
		t.Fatalf("Info reports %d shards", in.Shards)
	}
	if got := rd.dialCount(); got != 2 {
		t.Fatalf("dialed %d times, want 2 (initial + one reconnect)", got)
	}
	rd.kill(false)
	if _, err := c.SnapshotShard(5); err != nil {
		t.Fatalf("SnapshotShard after severed connection: %v", err)
	}
	if got := rd.dialCount(); got != 3 {
		t.Fatalf("dialed %d times, want 3 (initial + two reconnects)", got)
	}
	// Same epoch after reconnect: Submit is not disturbed.
	if _, err := c.Submit(0, []fpga.TaskSpec{{ID: 1, Cols: 2, Duration: 3}}); err != nil {
		t.Fatal(err)
	}
	if in, err = c.Info(); err != nil {
		t.Fatal(err)
	}
	if in.Epoch != 1 {
		t.Fatalf("Info().Epoch = %d, want 1", in.Epoch)
	}
	// Remote errors pass through without consuming a reconnect.
	if _, err := c.Submit(9, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("out-of-range tenant: %v", err)
	}
	if got := rd.dialCount(); got != 3 {
		t.Fatalf("dialed %d times after remote error, want still 3", got)
	}
}

// TestClientBackoffSchedule pins the capped exponential backoff: the
// sleep sequence between attempts is Base, 2*Base, ... clamped at Cap,
// and exhausting Attempts surfaces the last dial error.
func TestClientBackoffSchedule(t *testing.T) {
	var sleeps []time.Duration
	rc := RetryConfig{
		Attempts: 5, Base: 10 * time.Millisecond, Cap: 40 * time.Millisecond,
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	rd := &redialer{} // no server: every dial fails
	_, err := Dial(rd.dial, rc)
	if err == nil || !strings.Contains(err.Error(), "reconnect failed after 5 attempts") {
		t.Fatalf("exhausted dial: %v", err)
	}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 40 * time.Millisecond,
	}
	if !reflect.DeepEqual(sleeps, want) {
		t.Fatalf("backoff schedule %v, want %v", sleeps, want)
	}
	if rd.dialCount() != 5 {
		t.Fatalf("dialed %d times, want 5", rd.dialCount())
	}
}

// TestClientEpochResync is the full restart story: a daemon dies
// mid-stream and comes back at epoch+1 from an older checkpoint. The
// client surfaces ErrInterrupted on the in-flight submit and
// ErrEpochChanged on the blind resubmit; the caller resynchronizes from
// Info's meters, Rebases, replays the lost tail, and ends byte-identical
// to an uninterrupted run.
func TestClientEpochResync(t *testing.T) {
	cfg := ckptConfig()
	const n, chunk = 2000, 100
	tasks := churnTrace(t, 1, n, 8, 0.8*2)
	send := func(p Placer, from, to int) error {
		for base := from; base < to; base += chunk {
			if _, err := p.Submit(0, fleet.Specs(tasks[base:min(base+chunk, to)], base)); err != nil {
				return err
			}
		}
		return nil
	}

	// Reference: the same stream, same chunking, never interrupted.
	ref, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := send(Local{Fleet: ref}, 0, n); err != nil {
		t.Fatal(err)
	}

	fa, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(Local{Fleet: fa})
	srvA.SetEpoch(1)
	rd := &redialer{srv: srvA}
	c, err := Dial(rd.dial, fastRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stream half the trace, checkpoint at the 1000-task barrier, then
	// stream 400 more that the checkpoint never sees.
	if err := send(c, 0, 1000); err != nil {
		t.Fatal(err)
	}
	ck, err := CaptureCheckpoint(fa, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.ckpt")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	if err := send(c, 1000, 1400); err != nil {
		t.Fatal(err)
	}

	// Crash: the in-flight submit's outcome is unknowable.
	rd.kill(true)
	if err := send(c, 1400, 1400+chunk); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("submit into dead daemon: %v", err)
	}

	// Restart from the checkpoint at epoch 2.
	fb, got, err := Recover(path, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	srvB := NewServer(Local{Fleet: fb})
	srvB.SetEpoch(got.Epoch + 1)
	rd.swap(srvB)

	// A blind resubmit reconnects, sees the epoch moved, and is refused.
	if err := send(c, 1400, 1400+chunk); !errors.Is(err, ErrEpochChanged) {
		t.Fatalf("blind resubmit after restart: %v", err)
	}

	// Resynchronize: the recovered daemon's meter says how much of the
	// stream actually survived; everything after it must be replayed.
	in, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if in.Epoch != 2 {
		t.Fatalf("recovered epoch %d, want 2", in.Epoch)
	}
	resume := in.Meters[0].Submitted
	if resume != 1000 {
		t.Fatalf("recovered daemon has %d submitted, want 1000", resume)
	}
	c.Rebase()
	if err := send(c, resume, n); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ref.Shards(); i++ {
		want, _ := json.Marshal(ref.Shard(i).Snapshot())
		snap, err := c.SnapshotShard(i)
		if err != nil {
			t.Fatal(err)
		}
		gotB, _ := json.Marshal(snap)
		if string(gotB) != string(want) {
			t.Fatalf("shard %d diverges after kill+recover+replay", i)
		}
	}
	if !reflect.DeepEqual(fb.Meters(), ref.Meters()) {
		t.Fatalf("meters diverge: recovered %+v, reference %+v", fb.Meters(), ref.Meters())
	}
}

// TestServiceInfoSnapshotSubmitRace hammers reads (Info and per-shard
// snapshots) against concurrent per-tenant submissions from separate
// connections. The server's lane locks are what make this safe: opHello
// takes every lane, opSnapshot the shard owner's, opSubmit only its
// tenant's. `make race` runs this; the detector is the assertion.
func TestServiceInfoSnapshotSubmitRace(t *testing.T) {
	cfg := ckptConfig()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Local{Fleet: f})
	const perTenant = 300
	var wg sync.WaitGroup
	for ti := 0; ti < 3; ti++ {
		cc, sc := net.Pipe()
		go srv.Serve(sc)
		c := NewClient(cc)
		wg.Add(1)
		go func(ti int, c *Client) {
			defer wg.Done()
			defer c.Close()
			for j := 0; j < perTenant; j++ {
				id := ti*100000 + j
				if _, err := c.Submit(ti, []fpga.TaskSpec{{ID: id, Cols: 1 + j%4, Duration: 1 + float64(j%3)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(ti, c)
	}
	cc, sc := net.Pipe()
	go srv.Serve(sc)
	reader := NewClient(cc)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer reader.Close()
		for j := 0; j < 200; j++ {
			if _, err := reader.Info(); err != nil {
				t.Error(err)
				return
			}
			if _, err := reader.SnapshotShard(j % 6); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	for ti, m := range f.Meters() {
		if m.Submitted != perTenant {
			t.Fatalf("tenant %d meter %+v, want %d submitted", ti, m, perTenant)
		}
		if m.Placed+m.Refused > m.Submitted {
			t.Fatalf("tenant %d meter inconsistent: %+v", ti, m)
		}
	}
}
