package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"strippack/internal/fleet"
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

// loopback starts a Server over a fresh fleet on one end of a net.Pipe
// and returns a Client on the other. The server goroutine exits on
// client close; its error lands in errCh.
func loopback(t testing.TB, cfg fleet.Config) (*Client, chan error) {
	t.Helper()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc, sc := net.Pipe()
	errCh := make(chan error, 1)
	srv := NewServer(Local{Fleet: f})
	go func() { errCh <- srv.Serve(sc) }()
	client := NewClient(cc)
	t.Cleanup(func() { client.Close() })
	return client, errCh
}

// drive replays a trace through any Placer in fixed chunks and returns
// the stats, per-shard snapshots (JSON for comparability with direct
// fpga snapshots) and every placement.
func drive(t testing.TB, p Placer, tasks []workload.ChurnTask, chunk int) (*fleet.Stats, [][]byte, []fleet.Placement) {
	t.Helper()
	var placed []fleet.Placement
	for base := 0; base < len(tasks); base += chunk {
		end := min(base+chunk, len(tasks))
		got, err := p.Submit(0, fleet.Specs(tasks[base:end], base))
		if err != nil {
			t.Fatal(err)
		}
		placed = append(placed, got...)
	}
	st, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	info, err := p.Info()
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([][]byte, info.Shards)
	for i := range snaps {
		snap, err := p.SnapshotShard(i)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i], _ = json.Marshal(snap)
	}
	return st, snaps, placed
}

// TestLoopbackEquivalence is the service contract: the same trace driven
// through a Client↔Server loopback and through the in-process Local
// produces byte-identical stats, placements and canonical snapshots.
func TestLoopbackEquivalence(t *testing.T) {
	const K, shards = 8, 4
	tasks := churnTrace(t, 81, 5000, K, 0.85*shards)
	for _, route := range []fleet.Route{fleet.RouteRR, fleet.RouteLeast, fleet.RouteP2C} {
		cfg := fleet.Config{
			Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
			Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 16},
			Route:     route, Seed: 3,
		}
		lf, err := fleet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, wantSnaps, wantPlaced := drive(t, Local{Fleet: lf}, tasks, 256)

		client, _ := loopback(t, cfg)
		gotStats, gotSnaps, gotPlaced := drive(t, client, tasks, 256)

		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("route %v: stats diverge over loopback\n%+v\nvs\n%+v", route, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotPlaced, wantPlaced) {
			t.Fatalf("route %v: placements diverge over loopback", route)
		}
		for i := range wantSnaps {
			if string(gotSnaps[i]) != string(wantSnaps[i]) {
				t.Fatalf("route %v: shard %d snapshot diverges over loopback", route, i)
			}
		}
	}
}

// TestServiceFailover: a shard snapshot fetched over the wire mid-churn,
// restored into the served fleet between two opSubmit frames (a batch
// barrier, as recovery requires), replays byte-identically against an
// uninterrupted in-process run — the wire's snapshot bytes are the ones
// recovery restores from.
func TestServiceFailover(t *testing.T) {
	const K, shards, chunk = 8, 4, 250
	tasks := churnTrace(t, 83, 5000, K, 0.85*shards)
	cfg := fleet.Config{
		Shards: shards, Columns: K, Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 16},
		Route:     fleet.RouteLeast, Seed: 7,
	}
	lf, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantStats, wantSnaps, _ := drive(t, Local{Fleet: lf}, tasks, chunk)

	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc, sc := net.Pipe()
	go NewServer(Local{Fleet: f}).Serve(sc)
	client := NewClient(cc)
	defer client.Close()
	crashAt := len(tasks) / 2 / chunk * chunk
	for base := 0; base < len(tasks); base += chunk {
		if base == crashAt {
			// The snapshot's bytes stand in for a durable store between
			// the fetch and the restore. The client's previous frame has
			// been answered, so the fleet is at a batch barrier.
			snap, err := client.SnapshotShard(2)
			if err != nil {
				t.Fatal(err)
			}
			old := f.Shard(2)
			if _, err := f.RestoreShardBytes(2, EncodeSnapshot(snap)); err != nil {
				t.Fatal(err)
			}
			if f.Shard(2) == old {
				t.Fatal("restore did not swap shard 2")
			}
		}
		end := min(base+chunk, len(tasks))
		if _, err := client.Submit(0, fleet.Specs(tasks[base:end], base)); err != nil {
			t.Fatal(err)
		}
	}
	gotStats, err := client.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("stats diverge after failover over the wire\n%+v\nvs\n%+v", gotStats, wantStats)
	}
	for i := 0; i < shards; i++ {
		snap, err := client.SnapshotShard(i)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(snap)
		if string(got) != string(wantSnaps[i]) {
			t.Fatalf("shard %d snapshot diverges after failover over the wire", i)
		}
	}
}

// TestServiceInfoAndLoads: the handshake carries the fleet shape and
// tenant endpoints, and per-shard snapshots over the wire show a
// tenant's load only on its own shards.
func TestServiceInfoAndLoads(t *testing.T) {
	shed := fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 8}
	cfg := fleet.Config{
		Shards: 3, ShardCols: []int{4, 4, 8}, Policy: fpga.ReclaimCompact,
		Admission: shed,
		Tenants: []fleet.Tenant{
			{Name: "alpha", Shards: 2, Route: fleet.RouteLeast},
			{Name: "beta", Shards: 1, Route: fleet.RouteRR},
		},
		Seed: 11,
	}
	client, _ := loopback(t, cfg)
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	want := &Info{
		Shards: 3, Cols: []int{4, 4, 8}, Policy: fpga.ReclaimCompact,
		Admission: shed, Route: fleet.RouteRR, Seed: 11,
		Tenants: []TenantInfo{
			{Name: "alpha", First: 0, Count: 2, Route: fleet.RouteLeast},
			{Name: "beta", First: 2, Count: 1, Route: fleet.RouteRR},
		},
		Meters: []fleet.Meter{{}, {}},
	}
	if !reflect.DeepEqual(info, want) {
		t.Fatalf("Info() = %+v, want %+v", info, want)
	}
	// Submit to beta (tenant 1, shard 2 only), then read every shard.
	if _, err := client.Submit(1, []fpga.TaskSpec{{ID: 1, Cols: 2, Duration: 5}}); err != nil {
		t.Fatal(err)
	}
	var committed [3]float64
	for i := range committed {
		snap, err := client.SnapshotShard(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range snap.Tasks {
			committed[i] += float64(task.Cols) * task.Duration
		}
	}
	if committed[0] != 0 || committed[1] != 0 {
		t.Fatal("tenant beta's submission leaked onto alpha's shards")
	}
	if committed[2] != 10 {
		t.Fatalf("shard 2 committed %g col-time, want 10", committed[2])
	}
}

// TestRetiredOpsRefused: each retired request opcode (drain, load,
// restore, restored, epoch and checkpoint) gets the unknown-opcode error,
// and the connection goes on serving.
func TestRetiredOpsRefused(t *testing.T) {
	client, _ := loopback(t, fleet.Config{Shards: 2, Columns: 4, Route: fleet.RouteRR})
	snap := EncodeSnapshot(fpga.NewOnlineScheduler(fpga.NewDevice(4)).Snapshot())
	for i, op := range []byte{3, 4, 6, 8, 9, 10} {
		req := []byte{op}
		if op == 6 { // the restore request carried a shard and a snapshot
			req = append(append(req, 0), snap...)
		}
		_, err := client.call(req, opInfo)
		if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), fmt.Sprintf("unknown opcode %d", op)) {
			t.Fatalf("retired opcode %d: got %v, want the unknown-opcode error", op, err)
		}
		if _, err := client.Submit(0, []fpga.TaskSpec{{ID: i, Cols: 1, Duration: 1}}); err != nil {
			t.Fatalf("submit after retired opcode %d: %v", op, err)
		}
	}
}

// TestServiceErrors: execution errors come back as remote errors without
// killing the connection; later requests still work.
func TestServiceErrors(t *testing.T) {
	client, _ := loopback(t, fleet.Config{Shards: 2, Columns: 4, Route: fleet.RouteRR})
	// Tenant out of range.
	if _, err := client.Submit(5, []fpga.TaskSpec{{ID: 1, Cols: 1, Duration: 1}}); err == nil ||
		!strings.Contains(err.Error(), "tenant") {
		t.Fatalf("tenant error: %v", err)
	}
	// Oversized task -> routing error.
	if _, err := client.Submit(0, []fpga.TaskSpec{{ID: 1, Cols: 9, Duration: 1}}); err == nil {
		t.Fatal("oversized task accepted")
	}
	if _, err := client.SnapshotShard(7); err == nil {
		t.Fatal("out-of-range snapshot accepted")
	}
	// The connection survived all of the above.
	if _, err := client.Submit(0, []fpga.TaskSpec{{ID: 1, Cols: 1, Duration: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceConcurrentClients: many connections share one server; the
// mutex serializes them onto the fleet. Interleaving is nondeterministic
// but conservation and memory safety must hold (make race runs this).
func TestServiceConcurrentClients(t *testing.T) {
	f, err := fleet.New(fleet.Config{
		Shards: 4, Columns: 8, Policy: fpga.ReclaimCompact, Route: fleet.RouteLeast,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Local{Fleet: f})
	const clients = 4
	const perClient = 200
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		cc, sc := net.Pipe()
		go srv.Serve(sc)
		client := NewClient(cc)
		wg.Add(1)
		go func(ci int, c *Client) {
			defer wg.Done()
			defer c.Close()
			for j := 0; j < perClient; j++ {
				id := ci*perClient + j // disjoint ID ranges per client
				if _, err := c.Submit(0, []fpga.TaskSpec{{ID: id, Cols: 1 + id%4, Duration: 1}}); err != nil {
					t.Error(err)
					return
				}
				if j%50 == 0 {
					if _, err := c.Info(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(ci, client)
	}
	wg.Wait()
	st, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != clients*perClient {
		t.Fatalf("admitted %d of %d", st.Admitted, clients*perClient)
	}
}

// TestSplitAddr covers the endpoint syntax.
func TestSplitAddr(t *testing.T) {
	if n, a, err := SplitAddr("unix:/tmp/x.sock"); err != nil || n != "unix" || a != "/tmp/x.sock" {
		t.Fatalf("unix: %q %q %v", n, a, err)
	}
	if n, a, err := SplitAddr("tcp:127.0.0.1:79"); err != nil || n != "tcp" || a != "127.0.0.1:79" {
		t.Fatalf("tcp: %q %q %v", n, a, err)
	}
	for _, bad := range []string{"", "unix", "udp:x", "tcp:", ":x"} {
		if _, _, err := SplitAddr(bad); err == nil {
			t.Fatalf("SplitAddr(%q) accepted", bad)
		}
	}
}

// TestServeBufferReuse: one connection reuses its payload, spec and
// response buffers across frames, so a large submit followed by smaller
// requests, a malformed frame and a refused submit must each be answered
// byte-for-byte as a fresh Server on a fresh connection answers the same
// request against an identical fleet.
func TestServeBufferReuse(t *testing.T) {
	cfg := fleet.Config{
		Shards: 8, Columns: 16, Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64},
		Tenants:   []fleet.Tenant{{Name: "q", Shards: 8, Route: fleet.RouteLeast, MaxTaskCols: 12}},
	}
	specs := fleet.Specs(churnTrace(t, 17, 1024+3+16, 12, 0.8*8), 0)
	three := submitPayload(0, specs[1024:1027])
	wide := []fpga.TaskSpec{{ID: 5000, Cols: 14, Duration: 1}}
	requests := [][]byte{
		submitPayload(0, specs[:1024]),
		three,
		three[:len(three)-1], // truncated body: malformed
		submitPayload(0, wide),
		submitPayload(0, specs[1027:]),
	}
	roundTrip := func(conn net.Conn, r *bufio.Reader, req []byte) []byte {
		if err := writeFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	serve := func(f *fleet.Fleet) (net.Conn, *bufio.Reader) {
		cc, sc := net.Pipe()
		go NewServer(Local{Fleet: f}).Serve(sc)
		return cc, bufio.NewReader(cc)
	}
	reused, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, r := serve(reused)
	defer conn.Close()
	wantOp := []byte{opPlacements, opPlacements, opErr, opErr, opPlacements}
	for i, req := range requests {
		got := roundTrip(conn, r, req)
		fc, fr := serve(fresh)
		want := roundTrip(fc, fr, req)
		fc.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: reused connection answers %d bytes, fresh server %d bytes", i, len(got), len(want))
		}
		if got[0] != wantOp[i] {
			t.Fatalf("request %d: opcode %d, want %d", i, got[0], wantOp[i])
		}
	}
}
