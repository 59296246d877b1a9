package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile;
// minSamples is the sample count that gives a p99 that many.
const (
	minBeyond  = 10
	minSamples = 100 * minBeyond
)

// dist is a sample of one timing or size.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile and how many samples lie
// beyond it.
func (d dist) quantile(q float64) (v float64, beyond int) {
	if len(d) == 0 {
		return 0, 0
	}
	s := d.sorted()
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], len(s) - 1 - i
}

func (d dist) median() float64 {
	v, _ := d.quantile(0.5)
	return v
}

// pct returns the q-quantile with its sample note, or an error when
// fewer than minBeyond samples lie beyond it: such a percentile is not
// reported.
func (d dist) pct(q float64, what string) (float64, string, error) {
	v, beyond := d.quantile(q)
	if beyond < minBeyond {
		return 0, "", fmt.Errorf("%s: %d samples leave %d beyond the %gth percentile, need %d", what, len(d), beyond, 100*q, minBeyond)
	}
	return v, fmt.Sprintf("(n=%d, %d beyond)", len(d), beyond), nil
}

func (d dist) sum() float64 {
	var s float64
	for _, v := range d {
		s += v
	}
	return s
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func nOf(n int, unit string) string { return fmt.Sprintf("(n=%d %s)", n, unit) }

// counters is a reading of the process-wide counters a timed phase is
// charged with: CPU time, heap allocation and GC activity.
type counters struct {
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcPause    float64 // seconds the world was stopped for GC
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcPause:    s[3].Value.Float64() / float64(runtime.GOMAXPROCS(0)),
	}
}

// phase accumulates counter deltas over one or more timed phases.
type phase struct {
	cpu                   time.Duration
	allocBytes, allocObjs uint64
	gcCycles              uint64
	gcPause               float64
	from                  counters
}

func (p *phase) start() { p.from = readCounters() }

func (p *phase) stop() {
	to := readCounters()
	p.cpu += to.cpu - p.from.cpu
	p.allocBytes += to.allocBytes - p.from.allocBytes
	p.allocObjs += to.allocObjs - p.from.allocObjs
	p.gcCycles += to.gcCycles - p.from.gcCycles
	p.gcPause += to.gcPause - p.from.gcPause
}

// add folds another phase's totals into p.
func (p *phase) add(o *phase) {
	p.cpu += o.cpu
	p.allocBytes += o.allocBytes
	p.allocObjs += o.allocObjs
	p.gcCycles += o.gcCycles
	p.gcPause += o.gcPause
}

// liveHeapMB forces a collection and returns the live heap it marked.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // KiB on Linux
}

// printHost records the host every result set was measured on.
func printHost(ckptDir string) {
	fmt.Printf("host nproc %d  GOMAXPROCS %d  go %s  cpu %q  mem %s  ckpt-fs %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		procField("/proc/cpuinfo", "model name"), procField("/proc/meminfo", "MemTotal"), fsType(ckptDir))
}

// cpuTicks returns the machine's total and stolen CPU ticks from
// /proc/stat: steal is time a hypervisor gave this machine's CPUs to
// another guest.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// runtimeLayer fills the runtime per-layer metrics of a traced run. A
// traced run sees tens of GC pauses, too few for a p99 with ten beyond
// it, so the pauses are reported as their total.
func runtimeLayer(res *result, ph *phase, tasks float64) {
	res.layer("runtime.allocs_per_task", float64(ph.allocObjs)/tasks, "")
	res.layer("runtime.gc_cycles", float64(ph.gcCycles), "")
	res.layer("runtime.gc_pause_total_ms", ph.gcPause*1e3, "")
}
