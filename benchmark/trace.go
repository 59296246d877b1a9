package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// reconcileTolerance is the share of the traced wall time that the spans
// may leave unaccounted for.
const reconcileTolerance = 0.02

// Span timelines: driving goroutines use their index (tenant index on the
// serving workloads); spans recorded by the server's goroutines have none.
const noTimeline = -1

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function of the program.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`   // index of the enclosing span, -1 for a root
	Frame    int    `json:"frame"`    // first task ID of the frame, -1 when none
	Timeline int    `json:"timeline"` // driving goroutine, noTimeline for server-side spans
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) contains(o *span) bool { return s.Start <= o.Start && o.End <= s.End }

// tracer keeps the spans of one repeat in memory; flush links them,
// folds them into the run's totals and appends them to the span file.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// walls holds each timeline's traced wall time in this repeat.
	walls map[int]int64

	// Run totals across repeats.
	self      map[string]int64 // self time by span name
	durs      map[string]dist  // span durations by name, ns
	wall      int64            // summed timeline walls
	rootsSum  int64            // summed root span durations
	out       *bufio.Writer
	outFile   *os.File
	repeat    int
	frameSelf dist // per-frame service self time (client span minus server-side children), ns
}

func newTracer(path string) (*tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracer{
		origin: time.Now(), walls: map[int]int64{},
		self: map[string]int64{}, durs: map[string]dist{},
		out: bufio.NewWriter(f), outFile: f,
	}, nil
}

// span records a span; a nil tracer (an untraced run) records nothing.
func (t *tracer) span(name string, start, end time.Time, frame, timeline int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		Parent: -1, Frame: frame, Timeline: timeline})
	t.mu.Unlock()
}

// wallTime records a timeline's traced wall time for this repeat.
func (t *tracer) wallTime(timeline int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.walls[timeline] += int64(end.Sub(start))
	t.mu.Unlock()
}

// flush links this repeat's spans into trees, accumulates self times and
// durations, writes the spans out and starts the next repeat.
func (t *tracer) flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans
	link(sp)
	children := make([]int64, len(sp))
	for i := range sp {
		if p := sp[i].Parent; p >= 0 {
			children[p] += sp[i].dur()
		}
	}
	for i := range sp {
		s := &sp[i]
		t.durs[s.Name] = append(t.durs[s.Name], float64(s.dur()))
		root := i
		for sp[root].Parent >= 0 {
			root = sp[root].Parent
		}
		if sp[root].Timeline == noTimeline {
			continue // set-up or an unlinked server-side span: outside the timed phase
		}
		t.self[s.Name] += s.dur() - children[i]
		if s.Parent < 0 {
			t.rootsSum += s.dur()
		}
		switch {
		case s.Name == "service.submit":
			t.frameSelf = append(t.frameSelf, float64(s.dur()-children[i]))
		case s.Name == "service.ckpt_capture" && s.Parent >= 0:
			// The checkpointer starts once Server.Checkpoint holds every lane.
			t.durs["service.ckpt_lane_wait"] = append(t.durs["service.ckpt_lane_wait"], float64(s.Start-sp[s.Parent].Start))
		}
	}
	for _, w := range t.walls {
		t.wall += w
	}
	enc := json.NewEncoder(t.out)
	for i := range sp {
		if err := enc.Encode(struct {
			Repeat int `json:"repeat"`
			span
		}{t.repeat, sp[i]}); err != nil {
			return err
		}
	}
	t.repeat++
	t.spans = nil
	t.walls = map[int]int64{}
	return nil
}

// link sets each span's parent. A server-side span's parent is the
// client span of the same frame; fleet.finish and the checkpoint's
// capture and write spans nest by containment; a checkpoint belongs to
// the client span that contains it and whose frame finished its fleet
// work last before the checkpoint began (the frame whose AfterSubmit
// hook triggered it).
func link(sp []span) {
	client := map[int]int{}
	for i := range sp {
		if sp[i].Name == "service.submit" {
			client[sp[i].Frame] = i
		}
	}
	fleetEnd := map[int]int64{} // client span -> end of its fleet.submit child
	var ckpts, finishes []int
	for i := range sp {
		switch sp[i].Name {
		case "fleet.submit":
			if c, ok := client[sp[i].Frame]; ok {
				sp[i].Parent = c
				fleetEnd[c] = sp[i].End
			}
		case "service.checkpoint":
			ckpts = append(ckpts, i)
		case "service.finish":
			finishes = append(finishes, i)
		}
	}
	for _, k := range ckpts {
		best, bestEnd := -1, int64(-1)
		for c, fe := range fleetEnd {
			if sp[c].contains(&sp[k]) && fe <= sp[k].Start && fe > bestEnd {
				best, bestEnd = c, fe
			}
		}
		sp[k].Parent = best
	}
	for i := range sp {
		var outer []int
		switch sp[i].Name {
		case "service.ckpt_capture", "service.ckpt_write":
			outer = ckpts
		case "fleet.finish":
			outer = finishes
		default:
			continue
		}
		for _, o := range outer {
			if sp[o].contains(&sp[i]) {
				sp[i].Parent = o
			}
		}
	}
}

func (t *tracer) close() error {
	if err := t.out.Flush(); err != nil {
		t.outFile.Close()
		return err
	}
	return t.outFile.Close()
}

// reconcile prints the traced wall time against the layer self times
// plus the benchmark's own spans and returns an error when the spans
// leave more than reconcileTolerance of it unaccounted for.
func (t *tracer) reconcile() error {
	if t.wall == 0 {
		return fmt.Errorf("reconcile: no traced wall time")
	}
	names := make([]string, 0, len(t.self))
	for n := range t.self {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f ms", n, float64(t.self[n])/1e6))
	}
	gap := t.wall - t.rootsSum
	share := float64(gap) / float64(t.wall)
	fmt.Printf("reconcile: traced wall %.1f ms (summed over driving goroutines) = %s + unaccounted %.2f ms (%.3f%%, tolerance %.0f%%)\n",
		float64(t.wall)/1e6, strings.Join(parts, " + "), float64(gap)/1e6, 100*share, 100*reconcileTolerance)
	if share > reconcileTolerance || share < -reconcileTolerance {
		return fmt.Errorf("reconcile: spans leave %.2f%% of the traced wall time unaccounted, tolerance %.0f%%",
			100*share, 100*reconcileTolerance)
	}
	return nil
}

// runTraced runs the workload untraced in a child process and then traced
// in this one, each for half the time, and prints the tracing overhead on
// every end-to-end metric. The traced run's digests must equal the
// untraced run's, and its spans must reconcile with its wall time.
func runTraced(wl func(runConfig) (*result, error), rc runConfig, name string) (*result, error) {
	secs := max(int(rc.seconds/time.Second)/2, 1)
	rc.seconds = time.Duration(secs) * time.Second
	child := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.FormatInt(rc.seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", "0")
	child.Stderr = os.Stderr
	out, err := child.Output()
	if err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var ref struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ref); err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	var refDigests []string
	for _, l := range lines {
		if strings.HasPrefix(l, "digest ") {
			refDigests = append(refDigests, l)
		}
	}

	path := filepath.Join(workRoot, fmt.Sprintf("spans-%s-seed%d.jsonl", name, rc.seed))
	tr, err := newTracer(path)
	if err != nil {
		return nil, err
	}
	rc.tr = tr
	res, err := wl(rc)
	if cerr := tr.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fmt.Println("spans written to", path)
	res.check(ref.Correct, "the untraced reference run failed its output checks")
	res.check(slices.Equal(res.digests, refDigests), "traced digests %q differ from the untraced run's %q", res.digests, refDigests)
	names := make([]string, 0, len(res.values))
	for n := range res.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u, ok := ref.Metrics[n]
		if !ok {
			return nil, fmt.Errorf("untraced reference run did not report %s", n)
		}
		fmt.Printf("overhead %-24s untraced %12.6g  traced %12.6g  %+7.1f%%\n",
			n, u.Value, res.values[n], 100*(res.values[n]/u.Value-1))
	}
	if err := tr.reconcile(); err != nil {
		res.check(false, "%v", err)
	}
	return res, nil
}
