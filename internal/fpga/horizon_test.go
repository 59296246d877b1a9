package fpga

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"strippack/internal/geom"
)

// refScheduler is the original O(K·cols) implementation, kept as the
// behavioral reference: the run-list horizon must reproduce its placements
// bit for bit.
type refScheduler struct {
	device  *Device
	horizon []float64
}

func (o *refScheduler) submit(cols int, duration, release float64) (int, float64) {
	bestStart := -1.0
	bestCol := -1
	for c := 0; c+cols <= o.device.Columns; c++ {
		start := release
		for k := c; k < c+cols; k++ {
			if o.horizon[k] > start {
				start = o.horizon[k]
			}
		}
		if bestCol == -1 || start < bestStart-geom.Eps {
			bestStart = start
			bestCol = c
		}
	}
	bestStart = startAfter(bestStart, o.device.ReconfigDelay)
	for k := bestCol; k < bestCol+cols; k++ {
		o.horizon[k] = bestStart + duration
	}
	return bestCol, bestStart
}

// TestSubmitMatchesReferenceScan: random task streams on devices of many
// sizes place identically under the run-list horizon and the full scan.
func TestSubmitMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		K := 1 + rng.Intn(40)
		d := &Device{Columns: K}
		if rng.Intn(2) == 0 {
			d.ReconfigDelay = 0.25
		}
		o := NewOnlineScheduler(d)
		ref := &refScheduler{device: d, horizon: make([]float64, K)}
		release := 0.0
		for s := 0; s < 80; s++ {
			cols := 1 + rng.Intn(K)
			dur := 0.1 + rng.Float64()
			if rng.Intn(3) == 0 {
				release += rng.Float64()
			}
			task, err := o.Submit(s, "", cols, dur, release)
			if err != nil {
				t.Fatal(err)
			}
			wc, ws := ref.submit(cols, dur, release)
			if task.FirstCol != wc || task.Start != ws {
				t.Fatalf("trial %d submit %d (K=%d cols=%d rel=%g): runs (%d, %g) vs scan (%d, %g)",
					trial, s, K, cols, release, task.FirstCol, task.Start, wc, ws)
			}
		}
		// Makespan agrees with the reference horizon.
		var want float64
		for _, h := range ref.horizon {
			if h > want {
				want = h
			}
		}
		if got := o.Makespan(); got != want {
			t.Fatalf("trial %d: makespan %g vs reference %g", trial, got, want)
		}
	}
}

// checkHorizon compares the run-list horizon with a flat per-column
// oracle: every column read through values(), maxAll, committedAbove at a
// few clocks, and the run list itself, which must be exactly the maximal
// constant runs of the flat horizon.
func checkHorizon(t *testing.T, h *runHorizon, flat []float64) {
	t.Helper()
	got := h.values(nil)
	if len(got) != len(flat) {
		t.Fatalf("values() returned %d columns, want %d", len(got), len(flat))
	}
	wantMax := 0.0
	for c := range flat {
		if got[c] != flat[c] {
			t.Fatalf("column %d = %g, want %g", c, got[c], flat[c])
		}
		wantMax = max(wantMax, flat[c])
	}
	if m := h.maxAll(); m != wantMax {
		t.Fatalf("maxAll = %g, want %g", m, wantMax)
	}
	for _, now := range []float64{0, 1, 2.25} {
		want := 0.0
		for c := range flat {
			if flat[c] > now {
				want += flat[c] - now
			}
		}
		if got := h.committedAbove(now); math.Abs(got-want) > 1e-9 {
			t.Fatalf("committedAbove(%g) = %g, want %g", now, got, want)
		}
	}
	checkRuns(t, h, flat)
}

// rangeMax is max(horizon[l:r)) read through values().
func rangeMax(h *runHorizon, l, r int) float64 {
	return slices.Max(h.values(nil)[l:r])
}

// TestHorizonTreePrimitives exercises assign and range-max queries
// directly against a flat slice, checking the whole horizon after every
// operation.
func TestHorizonTreePrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(70)
		h := newRunHorizon(n)
		flat := make([]float64, n)
		for op := 0; op < 120; op++ {
			l := rng.Intn(n)
			r := l + 1 + rng.Intn(n-l)
			if rng.Intn(2) == 0 {
				v := rng.Float64() * 10
				h.assign(l, r, v)
				for k := l; k < r; k++ {
					flat[k] = v
				}
			} else if got, want := rangeMax(h, l, r), slices.Max(flat[l:r]); got != want {
				t.Fatalf("trial %d: max(%d,%d) = %g, want %g", trial, l, r, got, want)
			}
			checkHorizon(t, h, flat)
		}
	}
}

// TestHorizonTreeFreeFill exercises the non-monotone primitives — free
// (conditional lowering) and fill (bulk rebuild) — against a flat slice,
// interleaved with assigns and range-max queries. free(l, r, from, to)
// must lower exactly the columns in [l, r) still holding `from`, and
// leave the run list maximal.
func TestHorizonTreeFreeFill(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(70)
		h := newRunHorizon(n)
		flat := make([]float64, n)
		vals := []float64{0, 1, 1.5, 2, 2.5, 3} // small set to force equal runs
		for op := 0; op < 150; op++ {
			l := rng.Intn(n)
			r := l + 1 + rng.Intn(n-l)
			switch rng.Intn(4) {
			case 0: // assign
				v := vals[rng.Intn(len(vals))]
				h.assign(l, r, v)
				for k := l; k < r; k++ {
					flat[k] = v
				}
			case 1: // free: lower cells still at `from` down to `to`
				// (times are non-negative, the horizon's documented domain);
				// `to` is sometimes a value already present, so lowered
				// pieces merge with their neighbours.
				from := vals[1+rng.Intn(len(vals)-1)]
				to := from - 0.25 - 0.5*rng.Float64()
				if rng.Intn(2) == 0 {
					to = vals[rng.Intn(slices.Index(vals, from))]
				}
				freeBoth(t, h, flat, l, r, from, to)
			case 2: // fill
				for k := range flat {
					flat[k] = vals[rng.Intn(len(vals))]
				}
				h.fill(flat)
			default: // max query
				if got, want := rangeMax(h, l, r), slices.Max(flat[l:r]); got != want {
					t.Fatalf("trial %d: max(%d,%d) = %g, want %g", trial, l, r, got, want)
				}
			}
			checkHorizon(t, h, flat)
		}
	}
}

// freeBoth applies free to the run list and to the flat oracle and checks
// the lowered-column count.
func freeBoth(t *testing.T, h *runHorizon, flat []float64, l, r int, from, to float64) {
	t.Helper()
	want := 0
	for k := l; k < r; k++ {
		if flat[k] == from {
			flat[k] = to
			want++
		}
	}
	if got := h.free(l, r, from, to); got != want {
		t.Fatalf("free(%d, %d, %g, %g) lowered %d columns, want %d", l, r, from, to, got, want)
	}
}

// TestHorizonFreeShapes pins the free cases a random mix can miss: one run
// split in the middle, several separate pieces lowered in one call, and a
// lowered piece merging with equal neighbours on both sides.
func TestHorizonFreeShapes(t *testing.T) {
	cases := []struct {
		name     string
		flat     []float64
		l, r     int
		from, to float64
		runs     int // run count afterwards
	}{
		{"split middle", []float64{2, 2, 2, 2, 2, 2}, 2, 4, 2, 1, 3},
		{"separate pieces", []float64{3, 5, 3, 5, 3, 5, 3}, 0, 7, 3, 1, 7},
		{"pieces clipped by range", []float64{3, 3, 5, 3, 3, 5, 3, 3}, 1, 7, 3, 1, 7},
		{"merge both sides", []float64{1, 1, 4, 4, 1, 1}, 2, 4, 4, 1, 1},
		{"merge left", []float64{1, 4, 4, 2}, 1, 3, 4, 1, 2},
		{"merge right", []float64{0, 4, 4, 2, 2}, 1, 3, 4, 2, 2},
		{"merge across pieces", []float64{1, 3, 1, 3, 1}, 0, 5, 3, 1, 1},
		{"nothing owned", []float64{5, 5, 6, 6}, 0, 4, 3, 1, 2},
		{"whole device", []float64{2, 2, 2}, 0, 3, 2, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newRunHorizon(len(tc.flat))
			h.fill(tc.flat)
			flat := slices.Clone(tc.flat)
			freeBoth(t, h, flat, tc.l, tc.r, tc.from, tc.to)
			checkHorizon(t, h, flat)
			if len(h.runs) != tc.runs {
				t.Fatalf("%d runs %v, want %d", len(h.runs), h.runs, tc.runs)
			}
		})
	}
}

// checkRuns verifies that the run list is exactly the maximal constant
// runs of the flat horizon, in order.
func checkRuns(t *testing.T, h *runHorizon, flat []float64) {
	t.Helper()
	var want []hrun
	for c := 0; c < len(flat); c++ {
		if k := len(want) - 1; k >= 0 && want[k].val == flat[c] {
			want[k].end = c + 1
			continue
		}
		want = append(want, hrun{start: c, end: c + 1, val: flat[c]})
	}
	if !slices.Equal(h.runs, want) {
		t.Fatalf("runs %v, want %v", h.runs, want)
	}
}

// TestRunOnlineLargeK: the run-list horizon handles device widths far
// beyond the old scan's comfort zone and still yields valid schedules.
func TestRunOnlineLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	K := 256
	rects := make([]geom.Rect, 300)
	for i := range rects {
		cols := 1 + rng.Intn(K/2)
		rects[i] = geom.Rect{
			W:       float64(cols) / float64(K),
			H:       0.1 + rng.Float64(),
			Release: 3 * rng.Float64(),
		}
	}
	in := geom.NewInstance(1, rects)
	sched, err := RunOnline(in, NewDevice(K))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Simulate(); err != nil {
		t.Fatal(err)
	}
	p, err := sched.ToPacking(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
