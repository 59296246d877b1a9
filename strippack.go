// Package strippack is a library for strip packing with precedence
// constraints and strip packing with release times, reproducing
//
//	John Augustine, Sudarshan Banerjee, Sandy Irani:
//	"Strip packing with precedence constraints and strip packing with
//	release times" (SPAA 2006; TCS 410 (2009) 3792-3803).
//
// The strip has fixed width and unbounded height; height models time when
// rectangles are tasks on a linearly arranged resource such as a
// dynamically reconfigurable FPGA with K columns.
//
// Entry points:
//
//   - PackDC: the paper's divide-and-conquer O(log n)-approximation for
//     precedence-constrained instances (Theorem 2.3).
//   - PackUniformNextFit: the absolute 3-approximation for uniform-height
//     precedence-constrained instances (Theorem 2.6).
//   - PackReleaseAPTAS: the asymptotic PTAS for release-time instances with
//     heights <= 1 and widths in [1/K, 1] (Theorem 3.5).
//   - PackNFDH / PackFFDH / PackBottomLeft / PackSleator: classical
//     unconstrained strip packers used as subroutines and baselines.
//   - SolveExact: branch-and-bound optimum for small instances.
//   - QuantizeToColumns / SimulateOnFPGA: map packings onto a K-column
//     reconfigurable device and replay them in a discrete-event simulator.
//
// All algorithms return packings that pass (*Packing).Validate: in-strip,
// overlap-free, precedence- and release-feasible.
package strippack

import (
	"io"
	"math"

	"strippack/internal/core/precedence"
	"strippack/internal/core/release"
	"strippack/internal/exact"
	"strippack/internal/fpga"
	"strippack/internal/geom"
	"strippack/internal/kr"
	"strippack/internal/packing"
	"strippack/internal/viz"
)

// Rect is a rectangle (task) to pack: width W, height (duration) H, and an
// optional release time.
type Rect = geom.Rect

// Instance is a strip packing problem: rectangles, strip width, precedence
// edges.
type Instance = geom.Instance

// Packing is a placement of every rectangle of an instance.
type Packing = geom.Packing

// Placement is a lower-left corner position.
type Placement = geom.Placement

// New creates an instance with the given strip width (use 1 for the
// normalized strip of the paper); rectangle IDs follow slice order.
func New(width float64, rects []Rect) *Instance { return geom.NewInstance(width, rects) }

// DCResult reports the DC run alongside its packing.
type DCResult struct {
	Packing *Packing
	// Height is the packing height.
	Height float64
	// LowerBound is max(F(S), AREA(S)/width), the paper's two bounds.
	LowerBound float64
	// Guarantee is the proven bound log2(n+1)*F(S) + 2*AREA(S)/width.
	Guarantee float64
	// Calls and MaxDepth describe the recursion.
	Calls, MaxDepth int
}

// PackDC packs a precedence-constrained instance with Algorithm 1 of the
// paper; the result height is at most (2 + log2(n+1)) * OPT. Both bounds
// derive from the F(S) the DC run reports, so the DAG is built once.
func PackDC(in *Instance) (*DCResult, error) {
	p, st, err := precedence.DC(in, nil)
	if err != nil {
		return nil, err
	}
	area := in.AreaLowerBound()
	return &DCResult{
		Packing: p, Height: p.Height(),
		LowerBound: math.Max(st.F, area),
		Guarantee:  math.Log2(float64(in.N())+1)*st.F + 2*area,
		Calls:      st.Calls, MaxDepth: st.MaxDepth,
	}, nil
}

// UniformResult reports a uniform-height shelf packing.
type UniformResult struct {
	Packing *Packing
	Height  float64
	// Shelves and Skips expose the Theorem 2.6 accounting.
	Shelves, Skips int
}

// PackUniformNextFit packs a uniform-height precedence-constrained instance
// with the paper's algorithm F; the height is at most 3 * OPT.
func PackUniformNextFit(in *Instance) (*UniformResult, error) {
	p, st, err := precedence.NextFitUniform(in)
	if err != nil {
		return nil, err
	}
	return &UniformResult{Packing: p, Height: p.Height(), Shelves: st.Shelves, Skips: st.Skips}, nil
}

// PackUniformFirstFit is the First-Fit variant of PackUniformNextFit,
// usually tighter in practice (no absolute guarantee proven in the paper).
func PackUniformFirstFit(in *Instance) (*UniformResult, error) {
	p, st, err := precedence.FirstFitUniform(in)
	if err != nil {
		return nil, err
	}
	return &UniformResult{Packing: p, Height: p.Height(), Shelves: st.Shelves, Skips: st.Skips}, nil
}

// APTASResult reports an APTAS run.
type APTASResult struct {
	Packing *Packing
	Height  float64
	// FractionalHeight is OPTf(P(R,W)), a certified near-lower-bound.
	FractionalHeight float64
	// AdditiveBound is the (W+1)(R+1) additive term of Theorem 3.5.
	AdditiveBound float64
	// R, W are the rounding parameters chosen from epsilon and K.
	R, W int
}

// PackReleaseAPTAS packs a release-time instance (heights <= 1, widths in
// [width/K, width]) with Algorithm 2; the height is asymptotically within
// (1+epsilon) of optimal.
func PackReleaseAPTAS(in *Instance, epsilon float64, K int) (*APTASResult, error) {
	p, rep, err := release.Pack(in, release.Options{Epsilon: epsilon, K: K})
	if err != nil {
		return nil, err
	}
	return &APTASResult{
		Packing: p, Height: rep.Height,
		FractionalHeight: rep.FractionalHeight, AdditiveBound: rep.AdditiveBound,
		R: rep.R, W: rep.W,
	}, nil
}

// PackReleaseGreedy is the skyline baseline for release-time instances: no
// guarantee, fast, usually good.
func PackReleaseGreedy(in *Instance) (*Packing, error) { return release.GreedySkyline(in) }

// runPlain adapts an unconstrained packer to the Instance/Packing types.
func runPlain(in *Instance, algo packing.Algorithm) (*Packing, error) {
	res, err := algo(in.StripWidth(), in.Rects)
	if err != nil {
		return nil, err
	}
	p := geom.NewPacking(in)
	copy(p.Pos, res.Pos)
	return p, nil
}

// PackNFDH packs without constraints using Next-Fit Decreasing Height
// (height <= 2*AREA/width + h_max).
func PackNFDH(in *Instance) (*Packing, error) { return runPlain(in, packing.NFDH) }

// PackFFDH packs without constraints using First-Fit Decreasing Height.
func PackFFDH(in *Instance) (*Packing, error) { return runPlain(in, packing.FFDH) }

// PackBottomLeft packs without constraints using the skyline bottom-left
// rule in decreasing-height order.
func PackBottomLeft(in *Instance) (*Packing, error) { return runPlain(in, packing.BLDH) }

// PackSleator packs without constraints using Sleator's split algorithm.
func PackSleator(in *Instance) (*Packing, error) { return runPlain(in, packing.Sleator) }

// LowerBoundPrecedence returns max(F(S), AREA/width) for a precedence
// instance — the two simple lower bounds of Section 2.
func LowerBoundPrecedence(in *Instance) (float64, error) { return precedence.LowerBound(in) }

// FractionalLowerBound solves the configuration LP on the instance's own
// widths and release times, returning OPTf <= OPT. Exponential in the
// number of distinct widths; intended for small or quantized instances.
func FractionalLowerBound(in *Instance) (float64, error) {
	return release.FractionalLowerBound(in, release.CGOptions{})
}

// ExactResult is the outcome of the exact solver.
type ExactResult struct {
	Packing *Packing
	Height  float64
	// Proven is false when the node budget ran out (Height is then only an
	// upper bound).
	Proven bool
}

// SolveExact computes the optimal packing of a small instance (n <= 8 by
// default) by branch and bound, honoring precedence and release times.
func SolveExact(in *Instance) (*ExactResult, error) {
	res, err := exact.Solve(in, exact.Options{})
	if err != nil {
		return nil, err
	}
	return &ExactResult{Packing: res.Packing, Height: res.Height, Proven: res.Proven}, nil
}

// QuantizeToColumns rounds every width up to a whole number of columns of a
// K-column device, preserving feasibility of any schedule for the original.
func QuantizeToColumns(in *Instance, K int) (*Instance, error) {
	return fpga.QuantizeInstance(in, K)
}

// FPGAStats summarizes a simulated schedule on the device.
type FPGAStats struct {
	Makespan         float64
	Utilization      float64
	Reconfigurations int
}

// KRResult reports a Kenyon-Rémila run.
type KRResult struct {
	Packing *Packing
	Height  float64
	// FractionalHeight is OPTf of the grouped wide sub-instance.
	FractionalHeight float64
	// Wide and Narrow count the split at the eps' threshold.
	Wide, Narrow int
}

// PackKR packs an unconstrained instance (no precedence, no releases) with
// the Kenyon-Rémila-style asymptotic PTAS — the foundation ([16]) the
// paper's Section 3 generalizes. Asymptotically (1+epsilon)-optimal.
func PackKR(in *Instance, epsilon float64) (*KRResult, error) {
	p, rep, err := kr.Pack(in, kr.Options{Epsilon: epsilon})
	if err != nil {
		return nil, err
	}
	return &KRResult{
		Packing: p, Height: rep.Height,
		FractionalHeight: rep.FractionalHeight,
		Wide:             rep.Wide, Narrow: rep.Narrow,
	}, nil
}

// ScheduleOnline replays a release-time instance through the non-
// clairvoyant online scheduler of a K-column device (tasks are revealed at
// their release times) and returns the resulting packing — the baseline an
// operating system for reconfigurable hardware would achieve without
// lookahead.
func ScheduleOnline(in *Instance, K int) (*Packing, error) {
	sched, err := fpga.RunOnline(in, fpga.NewDevice(K))
	if err != nil {
		return nil, err
	}
	return sched.ToPacking(in)
}

// RenderASCII writes a terminal rendering of the packing (cols x rows grid).
func RenderASCII(w io.Writer, p *Packing, cols, rows int) error {
	return viz.ASCII(w, p, cols, rows)
}

// RenderSVG writes a standalone SVG of the packing, pixelWidth pixels wide.
func RenderSVG(w io.Writer, p *Packing, pixelWidth int) error {
	return viz.SVG(w, p, pixelWidth)
}

// SimulateOnFPGA maps a packing of a column-quantized instance onto a
// K-column device and replays it in the discrete-event simulator, verifying
// exclusive column ownership. X coordinates are snapped to the column grid
// first.
func SimulateOnFPGA(p *Packing, K int) (*FPGAStats, error) {
	if err := fpga.AlignPackingToColumns(p, K); err != nil {
		return nil, err
	}
	sched, err := fpga.FromPacking(fpga.NewDevice(K), p, 1e-6)
	if err != nil {
		return nil, err
	}
	st, err := sched.Simulate()
	if err != nil {
		return nil, err
	}
	return &FPGAStats{
		Makespan:         st.Makespan,
		Utilization:      st.Utilization,
		Reconfigurations: st.Reconfigurations,
	}, nil
}
