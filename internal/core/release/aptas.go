package release

import (
	"fmt"
	"math"
	"slices"

	"strippack/internal/geom"
)

// Options configures the APTAS (Algorithm 2).
type Options struct {
	// Epsilon is the target accuracy ε of Theorem 3.5 (height at most
	// (1+ε)·OPTf + (W+1)(R+1)). Must be positive.
	Epsilon float64
	// K is the column count: all widths must lie in [strip/K, strip].
	K int
	// CGWorkers is the pricing fan-out of the column-generation LP solve
	// (0 = GOMAXPROCS; results are identical for any value).
	CGWorkers int
}

// Report describes one APTAS run for the experiment harness.
type Report struct {
	R, W             int     // rounding parameters of Algorithm 2
	Groups           int     // width groups per release class (W/(R+1))
	Delta            float64 // release grid δ of Lemma 3.1
	DistinctWidths   int
	DistinctReleases int
	Configs          int
	LPVars, LPRows   int
	LPIterations     int
	FractionalHeight float64 // OPTf(P(R,W)) = ϱ_R + LP optimum
	Occurrences      int     // distinct configuration occurrences used
	AdditiveBound    float64 // (W+1)(R+1), Lemma 3.4's additive term
	Height           float64 // final integral height
}

// Pack runs Algorithm 2 on the instance: reduce P -> P(R) -> P(R,W), solve
// the configuration LP, convert the basic fractional optimum to an integral
// packing, and adapt placements back to the original rectangles.
func Pack(in *geom.Instance, opts Options) (*geom.Packing, *Report, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if in.N() == 0 {
		return nil, nil, fmt.Errorf("release: empty instance")
	}
	if opts.Epsilon <= 0 {
		return nil, nil, fmt.Errorf("release: epsilon must be positive, got %g", opts.Epsilon)
	}
	if opts.K < 1 {
		return nil, nil, fmt.Errorf("release: K must be >= 1, got %d", opts.K)
	}
	if err := CheckWidthBounds(in, opts.K); err != nil {
		return nil, nil, err
	}

	// Algorithm 2, lines 2-4.
	epsPrime := opts.Epsilon / 3
	R := int(math.Ceil(1 / epsPrime))
	W := int(math.Ceil(1/epsPrime)) * opts.K * (R + 1)
	groups := W / (R + 1)
	rep := &Report{R: R, W: W, Groups: groups}

	reduced, delta, err := RoundReleases(in, R)
	if err != nil {
		return nil, nil, err
	}
	rep.Delta = delta
	reduced, err = GroupWidths(reduced, groups)
	if err != nil {
		return nil, nil, err
	}

	rep.AdditiveBound = float64((W + 1) * (R + 1))
	fs, st, err := SolveCG(reduced, CGOptions{Workers: opts.CGWorkers})
	if err != nil {
		return nil, nil, err
	}
	rep.Configs = len(fs.Model.Configs)
	rep.LPVars = st.Columns
	rep.LPRows = st.Rows
	rep.DistinctWidths = len(fs.Model.Widths)
	rep.DistinctReleases = len(fs.Model.Releases)
	rep.FractionalHeight = fs.Height
	rep.Occurrences = fs.Occurrences
	rep.LPIterations = fs.Iterations

	rp, err := ToIntegral(reduced, fs)
	if err != nil {
		return nil, nil, err
	}
	p, err := AdaptToOriginal(in, rp)
	if err != nil {
		return nil, nil, err
	}
	rep.Height = p.Height()
	return p, rep, nil
}

// GreedyShelf is the baseline heuristic: rectangles sorted by release time
// are packed onto shelves; a shelf is closed when the next rectangle does
// not fit or is released after the shelf's base. Linear time after sorting,
// no approximation guarantee.
func GreedyShelf(in *geom.Instance) (*geom.Packing, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	p := geom.NewPacking(in)
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := in.Rects[a], in.Rects[b]
		switch {
		case ra.Release < rb.Release:
			return -1
		case ra.Release > rb.Release:
			return 1
		case ra.H > rb.H:
			return -1
		case ra.H < rb.H:
			return 1
		default:
			return a - b
		}
	})
	w := in.StripWidth()
	shelfY, shelfH, x := 0.0, 0.0, 0.0
	for _, id := range order {
		r := in.Rects[id]
		if x+r.W > w+geom.Eps || r.Release > shelfY+geom.Eps {
			ny := shelfY + shelfH
			if r.Release > ny {
				ny = r.Release
			}
			shelfY, shelfH, x = ny, 0, 0
		}
		p.Set(id, x, shelfY)
		x += r.W
		if r.H > shelfH {
			shelfH = r.H
		}
	}
	return p, nil
}

// GreedySkyline is the stronger baseline: rectangles sorted by release are
// placed bottom-left on a skyline, each no lower than its release time.
func GreedySkyline(in *geom.Instance) (*geom.Packing, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	p := geom.NewPacking(in)
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	// Index tie-break keeps the sort stable without reflection overhead.
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case in.Rects[a].Release < in.Rects[b].Release:
			return -1
		case in.Rects[a].Release > in.Rects[b].Release:
			return 1
		default:
			return a - b
		}
	})
	sky := geom.NewSkyline(in.StripWidth())
	for _, id := range order {
		r := in.Rects[id]
		x, y, ok := sky.BestPosition(r.W, r.H, r.Release)
		if !ok {
			return nil, fmt.Errorf("release: no skyline position for rect %d", id)
		}
		sky.Place(x, r.W, y, r.H)
		p.Set(id, x, y)
	}
	return p, nil
}
