// Command benchjson runs the repository benchmarks (the experiment
// tables plus the substrate micro-benchmarks in bench_test.go) and records
// ns/op, B/op and allocs/op per benchmark as JSON, so the performance
// trajectory of the repo is tracked in versioned artifacts (BENCH_1.json,
// BENCH_2.json, ...). Custom b.ReportMetric units — the fleet harness's
// tasks/s, p50-ns/task, p99-ns/task and shards columns recorded into
// BENCH_6.json — land in each result's "metrics" map.
//
// Usage:
//
//	benchjson -out BENCH_1.json                  # record everything, 1 iteration
//	benchjson -bench 'BenchmarkBottomLeft' -benchtime 3s -out /tmp/bl.json
//
// It shells out to `go test -bench` in the module root, so it needs the go
// toolchain on PATH — the same requirement as the tier-1 check itself.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

// Result is one benchmark measurement. Procs is the GOMAXPROCS the
// benchmark ran under (the -N suffix go test appends to the name; 1 when
// absent), so flat worker-scaling curves recorded on a single-core
// container are self-explaining.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric columns (e.g. tasks/s) by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Record is the file format: run metadata plus the measurements.
// GoMaxProcs and NumCPU describe the recording host — fan-out speedups
// (experiment trials, DC subtrees, CG pricing) can only show on
// NumCPU > 1, so a trajectory point from a single-core CI container is
// distinguishable from a regression.
type Record struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"num_cpu"`
	Bench       string   `json:"bench"`
	Benchtime   string   `json:"benchtime"`
	Count       int      `json:"count"`
	Results     []Result `json:"results"`
}

// benchLine matches the head of a benchmark result line,
// `BenchmarkFoo-8   123   ...` (the -N GOMAXPROCS suffix is optional and
// captured into Result.Procs); the rest of the line is a sequence of
// `value unit` measurement pairs parsed by metricPair — the standard
// ns/op and -benchmem columns plus any custom b.ReportMetric units.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.+)$`)

var metricPair = regexp.MustCompile(`([\d.eE+-]+) (\S+)`)

func main() {
	out := flag.String("out", "BENCH_1.json", "output JSON path")
	bench := flag.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	count := flag.Int("count", 1, "go test -count value")
	dir := flag.String("dir", ".", "module root to run go test in")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run=NONE",
		"-bench="+*bench, "-benchmem", "-benchtime="+*benchtime,
		fmt.Sprintf("-count=%d", *count), ".")
	cmd.Dir = *dir
	raw, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			fmt.Fprintf(os.Stderr, "benchjson: go test failed:\n%s%s", raw, ee.Stderr)
		} else {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
		}
		os.Exit(1)
	}

	rec := Record{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   goVersion(*dir),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Bench:       *bench,
		Benchtime:   *benchtime,
		Count:       *count,
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := Result{Name: m[1], Procs: 1}
		if m[2] != "" {
			r.Procs, _ = strconv.Atoi(m[2])
		}
		r.Iterations, _ = strconv.Atoi(m[3])
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch pair[2] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[pair[2]] = v
			}
		}
		rec.Results = append(rec.Results, r)
	}
	if len(rec.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in go test output")
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(rec.Results), *out)
}

// goVersion reports the toolchain as resolved from dir, the same directory
// the benchmarks run in, so module toolchain directives are honoured.
func goVersion(dir string) string {
	cmd := exec.Command("go", "version")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}
