package fpga

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"strippack/internal/geom"
	"strippack/internal/packing"
)

func TestFromPackingAligned(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 2}, {W: 0.25, H: 1},
	})
	p := geom.NewPacking(in)
	p.Set(0, 0, 0)
	p.Set(1, 0.5, 0)
	s, err := FromPacking(NewDevice(4), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks[0].Cols != 2 || s.Tasks[1].FirstCol != 2 || s.Tasks[1].Cols != 1 {
		t.Fatalf("mapping wrong: %+v", s.Tasks)
	}
}

func TestFromPackingRejectsMisaligned(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.3, H: 1}})
	p := geom.NewPacking(in)
	p.Set(0, 0, 0)
	if _, err := FromPacking(NewDevice(4), p, 0); err == nil {
		t.Fatal("0.3 width on a 4-column device accepted")
	}
}

func TestSimulateBasic(t *testing.T) {
	d := NewDevice(4)
	s := &Schedule{Device: d, Tasks: []Task{
		{ID: 0, FirstCol: 0, Cols: 2, Start: 0, Duration: 2},
		{ID: 1, FirstCol: 2, Cols: 2, Start: 0, Duration: 1},
		{ID: 2, FirstCol: 2, Cols: 1, Start: 1, Duration: 1},
	}}
	st, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if st.Makespan != 2 {
		t.Fatalf("makespan = %g, want 2", st.Makespan)
	}
	if st.Reconfigurations != 3 {
		t.Fatalf("reconfigs = %d", st.Reconfigurations)
	}
	want := (2*2.0 + 2*1.0 + 1*1.0) / (4 * 2.0)
	if math.Abs(st.Utilization-want) > 1e-12 {
		t.Fatalf("utilization = %g, want %g", st.Utilization, want)
	}
	if st.PeakColumnsBusy != 4 {
		t.Fatalf("peak = %d, want 4", st.PeakColumnsBusy)
	}
}

func TestSimulateDetectsConflict(t *testing.T) {
	s := &Schedule{Device: NewDevice(2), Tasks: []Task{
		{ID: 0, FirstCol: 0, Cols: 2, Start: 0, Duration: 2},
		{ID: 1, FirstCol: 1, Cols: 1, Start: 1, Duration: 1},
	}}
	if _, err := s.Simulate(); err == nil || !strings.Contains(err.Error(), "double-booked") {
		t.Fatalf("conflict not detected: %v", err)
	}
}

func TestSimulateAllowsBackToBack(t *testing.T) {
	s := &Schedule{Device: NewDevice(1), Tasks: []Task{
		{ID: 0, FirstCol: 0, Cols: 1, Start: 0, Duration: 1},
		{ID: 1, FirstCol: 0, Cols: 1, Start: 1, Duration: 1},
	}}
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("back-to-back rejected: %v", err)
	}
}

func TestSimulateReconfigDelay(t *testing.T) {
	d := &Device{Columns: 1, ReconfigDelay: 0.5}
	// Task 1 starts exactly when task 0 ends: with delay 0.5 its occupancy
	// begins at 0.5 while task 0 still runs -> conflict.
	s := &Schedule{Device: d, Tasks: []Task{
		{ID: 0, FirstCol: 0, Cols: 1, Start: 0.5, Duration: 0.5},
		{ID: 1, FirstCol: 0, Cols: 1, Start: 1, Duration: 1},
	}}
	if _, err := s.Simulate(); err == nil {
		t.Fatal("reconfiguration overlap not detected")
	}
	// With slack it passes.
	s.Tasks[1].Start = 1.5
	if _, err := s.Simulate(); err != nil {
		t.Fatalf("slacked schedule rejected: %v", err)
	}
	// Starting before the delay can finish is invalid.
	s2 := &Schedule{Device: d, Tasks: []Task{{ID: 0, FirstCol: 0, Cols: 1, Start: 0.1, Duration: 1}}}
	if _, err := s2.Simulate(); err == nil {
		t.Fatal("start before reconfiguration accepted")
	}
}

func TestSimulateRejectsBadTasks(t *testing.T) {
	cases := []Task{
		{ID: 0, FirstCol: -1, Cols: 1, Start: 0, Duration: 1},
		{ID: 0, FirstCol: 3, Cols: 2, Start: 0, Duration: 1},
		{ID: 0, FirstCol: 0, Cols: 1, Start: 0, Duration: 0},
	}
	for i, task := range cases {
		s := &Schedule{Device: NewDevice(4), Tasks: []Task{task}}
		if _, err := s.Simulate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, task)
		}
	}
}

func TestQuantizeInstance(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.3, H: 1}, {W: 0.26, H: 1}})
	out, err := QuantizeInstance(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Rects[0].W-0.5) > 1e-12 || math.Abs(out.Rects[1].W-0.5) > 1e-12 {
		t.Fatalf("quantized widths %v", []float64{out.Rects[0].W, out.Rects[1].W})
	}
	if _, err := QuantizeInstance(in, 0); err == nil {
		t.Fatal("K=0 accepted")
	}
}

// TestEndToEndPackSimulate: quantize random instances, pack with NFDH,
// align, convert, simulate: the makespan must equal the packing height.
func TestEndToEndPackSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		K := 2 + rng.Intn(6)
		n := 1 + rng.Intn(20)
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{W: 0.05 + 0.9*rng.Float64(), H: 0.1 + rng.Float64()}
		}
		in, err := QuantizeInstance(geom.NewInstance(1, rects), K)
		if err != nil {
			t.Fatal(err)
		}
		res, err := packing.NFDH(1, in.Rects)
		if err != nil {
			t.Fatal(err)
		}
		p := geom.NewPacking(in)
		copy(p.Pos, res.Pos)
		if err := AlignPackingToColumns(p, K); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s, err := FromPacking(NewDevice(K), p, 1e-6)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st, err := s.Simulate()
		if err != nil {
			t.Fatalf("trial %d: simulate: %v", trial, err)
		}
		if math.Abs(st.Makespan-p.Height()) > 1e-9 {
			t.Fatalf("trial %d: makespan %g != height %g", trial, st.Makespan, p.Height())
		}
		if st.Utilization <= 0 || st.Utilization > 1+1e-9 {
			t.Fatalf("trial %d: utilization %g out of range", trial, st.Utilization)
		}
	}
}
