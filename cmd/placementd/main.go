// placementd is the placement-service daemon: one sharded fleet of
// online schedulers behind the service wire protocol, listening on a
// unix socket or TCP port.
//
//	placementd -listen unix:/tmp/placementd.sock -shards 64 -k 16
//	placementd -listen tcp:127.0.0.1:7420 -tenants alpha:16:rr,beta:48
//
// Clients (cmd/fleetload -connect, or anything speaking the protocol in
// internal/service/DESIGN.md) open the opHello handshake to verify the
// daemon's fleet shape and resolve per-tenant endpoints by name. Any
// number of connections share the one fleet; the server serializes
// requests per tenant lane, so distinct tenants' submissions run
// concurrently while each tenant sees the exact in-process fleet
// semantics — byte-identical stats and snapshots, as `make determinism`
// enforces. Per-shard work fans out on up to GOMAXPROCS goroutines, which
// never changes a result.
//
// With -checkpoint-dir the daemon is durable: it atomically writes the
// whole fleet (manifest + every shard's canonical snapshot, see
// internal/service/DESIGN.md) to <dir>/checkpoint.ckpt every
// -checkpoint-every submit frames and again on graceful shutdown, and
// -recover restores from that file on startup — refusing it with a
// typed error if it is corrupt or from a different fleet shape. Each
// run serves at an epoch one past the checkpoint it recovered (fresh
// runs serve epoch 1), so reconnecting clients detect the restart and
// resynchronize instead of double-submitting. -exit-after simulates a
// crash for the determinism harness: after exactly N submit frames the
// daemon checkpoints and exits hard — no drain, no summary.
//
// SIGTERM/SIGINT triggers a graceful drain: the listener closes (new
// connections refused), in-flight requests finish, a final checkpoint
// is written (when configured), the fleet drains and the final
// aggregate summary is printed before exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/service"
)

func usage() {
	fmt.Fprintf(os.Stderr, `placementd: placement-service daemon over a fleet of online schedulers

usage: placementd -listen unix:/path|tcp:host:port [flags]

`)
	flag.PrintDefaults()
}

// checkpointer owns the daemon's durable-checkpoint state: the target
// file, the serving epoch and the monotonic write sequence (continued
// from a recovered checkpoint, so sequence numbers never repeat across
// restarts of one lineage).
type checkpointer struct {
	f     *fleet.Fleet
	path  string
	epoch uint64
	seq   atomic.Uint64
}

// write captures and atomically persists one checkpoint, returning its
// sequence number. The server calls it with every lane held, so the
// fleet is quiescent at a batch barrier.
func (cp *checkpointer) write() (uint64, error) {
	seq := cp.seq.Add(1)
	ck, err := service.CaptureCheckpoint(cp.f, cp.epoch, seq)
	if err != nil {
		return 0, err
	}
	if err := service.WriteCheckpoint(cp.path, ck); err != nil {
		return 0, err
	}
	return seq, nil
}

// installHooks wires the checkpoint machinery onto the server: the
// checkpointer itself, the periodic every-N-submits trigger, and the
// -exit-after crash hook (which checkpoints, then calls exit). Split
// from main so the daemon test can drive the exact production wiring
// in-process.
func installHooks(srv *service.Server, cp *checkpointer, every, exitAfter uint64, exit func(total, seq uint64)) {
	srv.SetEpoch(cp.epoch)
	srv.SetCheckpointer(cp.write)
	if every == 0 && exitAfter == 0 {
		return
	}
	srv.AfterSubmit(func(total uint64) {
		if exitAfter > 0 && total == exitAfter {
			_, seq, err := srv.Checkpoint()
			if err != nil {
				fatal(err)
			}
			exit(total, seq)
			return
		}
		if every > 0 && total%every == 0 {
			if _, _, err := srv.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "placementd: checkpoint:", err)
			}
		}
	})
}

func main() {
	listen := flag.String("listen", "unix:/tmp/placementd.sock", "endpoint: unix:/path or tcp:host:port")
	shards := flag.Int("shards", 64, "number of scheduler shards")
	k := flag.Int("k", 16, "columns per shard")
	shardCols := flag.String("shard-cols", "", "per-shard columns, e.g. 8,8,32,32 (overrides -k)")
	delay := flag.Float64("reconfig", 0, "per-task reconfiguration delay")
	routeName := flag.String("route", "least", "placement route: rr, least, or p2c")
	tenants := flag.String("tenants", "", "tenant groups, e.g. alpha:4:rr:1024:8,beta:60 (empty = one tenant)")
	policyName := flag.String("policy", "compact", "completion policy: none, reclaim, or compact")
	admissionName := flag.String("admission", "shed", "admission policy: unbounded, reject, or shed")
	backlog := flag.Int("backlog", 64, "per-shard backlog bound for reject/shed")
	seed := flag.Int64("seed", 1, "p2c rng seed")
	ckptDir := flag.String("checkpoint-dir", "", "directory for the durable checkpoint file (empty = no checkpointing)")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "write a checkpoint every N submit frames (0 = only on shutdown)")
	recoverRun := flag.Bool("recover", false, "restore the fleet from -checkpoint-dir's checkpoint on startup")
	exitAfter := flag.Uint64("exit-after", 0, "checkpoint and exit hard after exactly N submit frames (crash simulation)")
	flag.Usage = usage
	flag.Parse()

	policy, err := fpga.ParsePolicy(*policyName)
	if err != nil {
		fatal(err)
	}
	admission, err := fpga.ParseAdmission(*admissionName)
	if err != nil {
		fatal(err)
	}
	route, err := fleet.ParseRoute(*routeName)
	if err != nil {
		fatal(err)
	}
	cols, err := fleet.ParseShardCols(*shardCols)
	if err != nil {
		fatal(err)
	}
	tn, err := fleet.ParseTenants(*tenants, route)
	if err != nil {
		fatal(err)
	}
	ac := fpga.AdmissionConfig{Policy: admission}
	if admission != fpga.AdmitAll {
		ac.MaxBacklog = *backlog
	}
	cfg := fleet.Config{
		Shards:        *shards,
		Columns:       *k,
		ShardCols:     cols,
		ReconfigDelay: *delay,
		Policy:        policy,
		Admission:     ac,
		Route:         route,
		Tenants:       tn,
		Seed:          *seed,
	}
	if *ckptDir == "" && (*ckptEvery > 0 || *recoverRun || *exitAfter > 0) {
		fatal(fmt.Errorf("-checkpoint-every, -recover and -exit-after require -checkpoint-dir"))
	}

	var f *fleet.Fleet
	epoch := uint64(1)
	ckptPath := ""
	if *ckptDir != "" {
		ckptPath = filepath.Join(*ckptDir, "checkpoint.ckpt")
	}
	var startSeq uint64
	if *recoverRun {
		var ck *service.Checkpoint
		f, ck, err = service.Recover(ckptPath, cfg, 1)
		if err != nil {
			fatal(err)
		}
		epoch = ck.Epoch + 1
		startSeq = ck.Seq
		fmt.Fprintf(os.Stderr, "placementd: recovered checkpoint epoch %d seq %d, serving epoch %d\n",
			ck.Epoch, ck.Seq, epoch)
	} else {
		f, err = fleet.New(cfg)
		if err != nil {
			fatal(err)
		}
	}

	network, addr, err := service.SplitAddr(*listen)
	if err != nil {
		fatal(err)
	}
	if network == "unix" {
		// A stale socket from an unclean shutdown blocks rebinding.
		os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "placementd: %d shards, epoch %d, listening on %s\n", *shards, epoch, *listen)

	srv := service.NewServer(service.Local{Fleet: f})
	var cp *checkpointer
	if ckptPath != "" {
		cp = &checkpointer{f: f, path: ckptPath, epoch: epoch}
		cp.seq.Store(startSeq)
		installHooks(srv, cp, *ckptEvery, *exitAfter, func(total, seq uint64) {
			fmt.Fprintf(os.Stderr, "placementd: exit-after %d submits, checkpoint seq %d\n", total, seq)
			os.Exit(0)
		})
	} else {
		srv.SetEpoch(epoch)
	}

	done := make(chan struct{})
	var conns sync.WaitGroup
	go func() { // accept loop; ends when the listener closes on shutdown
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer conn.Close()
				if err := srv.Serve(conn); err != nil {
					fmt.Fprintln(os.Stderr, "placementd: connection:", err)
				}
			}()
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Fprintf(os.Stderr, "placementd: %s, draining\n", s)
	ln.Close()
	<-done
	conns.Wait() // in-flight connections finish their requests
	if network == "unix" {
		os.Remove(addr)
	}

	// The shutdown checkpoint precedes Finish: Finish drains, and the
	// checkpoint must capture the resumable pre-drain state.
	if cp != nil {
		if seq, err := cp.write(); err != nil {
			fmt.Fprintln(os.Stderr, "placementd: final checkpoint:", err)
		} else {
			fmt.Fprintf(os.Stderr, "placementd: final checkpoint seq %d\n", seq)
		}
	}

	st, err := f.Finish()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("placementd: %d tasks over %d shards  admitted %d  rejected %d  shed %d\n",
		st.Tasks, st.Shards, st.Admitted, st.Rejected, st.Shed)
	fmt.Printf("makespan %.4f  utilization %.4f  mean wait %.4f  peak backlog %d\n",
		st.Makespan, st.Utilization, st.MeanWait, st.MaxBacklog)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "placementd:", err)
	os.Exit(1)
}
