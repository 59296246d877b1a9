// Package fpga models the dynamically reconfigurable FPGA that motivates
// the paper: a device with K homogeneous columns reconfigurable along one
// axis (Virtex-II style), where every task occupies a contiguous set of
// columns for a contiguous interval of time.
//
// A strip packing of an instance whose widths are multiples of 1/K maps
// directly onto the device: x -> first column, width -> column count,
// y -> start time, height -> duration. The discrete-event simulator replays
// such a schedule, enforces exclusive column ownership, models a per-
// reconfiguration delay, and reports makespan and utilization. It is the
// substitution for the physical hardware documented in DESIGN.md.
//
// Beyond one-shot schedules, the package models the steady-state operating
// system of the paper's §1: OnlineScheduler processes task completion
// events (Complete, or a lifetime registered at submission + AdvanceTo) and can reclaim the
// columns of early-finishing tasks and compact waiting tasks onto the
// reclaimed time (Policy). Completion events mean the per-column horizon
// is no longer monotone — see DESIGN.md in this directory for the model,
// the run-list horizon and its free primitive that support it, the audit
// of bestWindow's assumptions, and why the compaction policy is
// anomaly-free while opportunistic reclamation is not.
package fpga

import (
	"fmt"
	"math"
	"slices"

	"strippack/internal/geom"
)

// Device is a K-column reconfigurable fabric.
type Device struct {
	// Columns is the number of columns K (the paper notes K <= 200 on real
	// parts).
	Columns int
	// ReconfigDelay is the time to reconfigure one task onto the fabric
	// before it can run; 0 models free reconfiguration.
	ReconfigDelay float64
}

// NewDevice returns a device with K columns and no reconfiguration delay.
func NewDevice(k int) *Device { return &Device{Columns: k} }

// Task is a placed task on the device.
type Task struct {
	ID       int
	Name     string
	FirstCol int     // leftmost column index, 0-based
	Cols     int     // number of contiguous columns
	Start    float64 // start time (includes reconfiguration)
	Duration float64
	Release  float64 // submission time (0 for schedules built offline)
}

// End returns Start + Duration.
func (t Task) End() float64 { return t.Start + t.Duration }

// Schedule is a set of placed tasks on one device.
type Schedule struct {
	Device *Device
	Tasks  []Task
}

// FromPacking converts a strip packing into a device schedule. The strip
// width is interpreted as the full device: a rectangle of width w maps to
// round(w/width*K) columns and its x to round(x/width*K). An error is
// returned when any coordinate is farther than tol (in columns) from the
// column grid — the contiguity requirement of the hardware.
func FromPacking(d *Device, p *geom.Packing, tol float64) (*Schedule, error) {
	if tol <= 0 {
		tol = 1e-6
	}
	in := p.Instance
	w := in.StripWidth()
	K := float64(d.Columns)
	s := &Schedule{Device: d}
	for i, r := range in.Rects {
		fc := p.Pos[i].X / w * K
		nc := r.W / w * K
		rfc, rnc := math.Round(fc), math.Round(nc)
		if math.Abs(fc-rfc) > tol || math.Abs(nc-rnc) > tol {
			return nil, fmt.Errorf("fpga: rect %d not column-aligned (x->%.4f cols, w->%.4f cols)", i, fc, nc)
		}
		if rnc < 1 {
			return nil, fmt.Errorf("fpga: rect %d narrower than one column", i)
		}
		s.Tasks = append(s.Tasks, Task{
			ID: i, Name: r.Name,
			FirstCol: int(rfc), Cols: int(rnc),
			Start: p.Pos[i].Y, Duration: r.H, Release: r.Release,
		})
	}
	return s, nil
}

// Stats summarizes a simulated schedule.
type Stats struct {
	// Makespan is the time the last task finishes.
	Makespan float64
	// BusyColumnTime is the total column-time occupied by tasks.
	BusyColumnTime float64
	// Utilization is BusyColumnTime / (Columns * Makespan).
	Utilization float64
	// Reconfigurations counts task loads onto the fabric.
	Reconfigurations int
	// PeakColumnsBusy is the maximum number of simultaneously busy columns.
	PeakColumnsBusy int
}

// Simulate replays the schedule as discrete events and verifies that no two
// tasks ever share a column. With a non-zero ReconfigDelay each task's
// effective occupancy starts ReconfigDelay before its Start; the schedule
// must have been built with that slack (or the check fails).
func (s *Schedule) Simulate() (*Stats, error) {
	d := s.Device
	if d == nil || d.Columns < 1 {
		return nil, fmt.Errorf("fpga: invalid device")
	}
	type event struct {
		t     float64
		start bool
		idx   int
	}
	evs := make([]event, 0, 2*len(s.Tasks))
	for idx, task := range s.Tasks {
		if task.FirstCol < 0 || task.FirstCol+task.Cols > d.Columns {
			return nil, fmt.Errorf("fpga: task %d columns [%d,%d) outside device of %d columns",
				task.ID, task.FirstCol, task.FirstCol+task.Cols, d.Columns)
		}
		if task.Duration <= 0 {
			return nil, fmt.Errorf("fpga: task %d has non-positive duration", task.ID)
		}
		begin := task.Start - d.ReconfigDelay
		if begin < -1e-9 {
			return nil, fmt.Errorf("fpga: task %d starts before reconfiguration can finish", task.ID)
		}
		evs = append(evs,
			event{t: begin, start: true, idx: idx},
			event{t: task.End(), start: false, idx: idx})
	}
	slices.SortFunc(evs, func(a, b event) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		case a.start != b.start: // frees before claims
			if !a.start {
				return -1
			}
			return 1
		default:
			return a.idx - b.idx
		}
	})
	owner := make([]int, d.Columns)
	for c := range owner {
		owner[c] = -1
	}
	st := &Stats{}
	busy := 0
	for _, e := range evs {
		task := s.Tasks[e.idx]
		if e.start {
			for c := task.FirstCol; c < task.FirstCol+task.Cols; c++ {
				if owner[c] != -1 {
					return nil, fmt.Errorf("fpga: column %d double-booked by tasks %d and %d at t=%g",
						c, s.Tasks[owner[c]].ID, task.ID, e.t)
				}
				owner[c] = e.idx
			}
			busy += task.Cols
			st.Reconfigurations++
			if busy > st.PeakColumnsBusy {
				st.PeakColumnsBusy = busy
			}
		} else {
			for c := task.FirstCol; c < task.FirstCol+task.Cols; c++ {
				owner[c] = -1
			}
			busy -= task.Cols
		}
		if e.t > st.Makespan {
			st.Makespan = e.t
		}
	}
	for _, task := range s.Tasks {
		st.BusyColumnTime += float64(task.Cols) * task.Duration
	}
	if st.Makespan > 0 {
		st.Utilization = st.BusyColumnTime / (float64(d.Columns) * st.Makespan)
	}
	return st, nil
}

// QuantizeInstance snaps every rectangle width of in up to the next multiple
// of width/K, producing a column-aligned instance for the device. Widths
// only grow, so any schedule of the quantized instance is feasible for the
// original.
func QuantizeInstance(in *geom.Instance, K int) (*geom.Instance, error) {
	if K < 1 {
		return nil, fmt.Errorf("fpga: K must be >= 1")
	}
	out := in.Clone()
	col := in.StripWidth() / float64(K)
	for i := range out.Rects {
		cols := math.Ceil(out.Rects[i].W/col - geom.Eps)
		if cols < 1 {
			cols = 1
		}
		if cols > float64(K) {
			return nil, fmt.Errorf("fpga: rect %d wider than the device", i)
		}
		out.Rects[i].W = cols * col
	}
	return out, nil
}

// AlignPackingToColumns snaps x coordinates of a packing of a column-
// quantized instance to the column grid (e.g. after a packer returns
// float-accumulated offsets). Fails if any coordinate is more than half a
// column off the grid.
func AlignPackingToColumns(p *geom.Packing, K int) error {
	w := p.Instance.StripWidth()
	col := w / float64(K)
	for i := range p.Pos {
		c := math.Round(p.Pos[i].X / col)
		if math.Abs(p.Pos[i].X-c*col) > col/2 {
			return fmt.Errorf("fpga: rect %d x=%g too far from column grid", i, p.Pos[i].X)
		}
		p.Pos[i].X = c * col
	}
	return p.Validate()
}
