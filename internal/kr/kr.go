// Package kr implements a Kenyon-Rémila-style asymptotic PTAS for classical
// strip packing (no precedence, no release times). The paper reproduced in
// this repository borrows its Section 3 machinery from Kenyon and Rémila
// ("A near-optimal solution to a two-dimensional cutting stock problem",
// Math. Oper. Res. 25(4), 2000); this package closes the loop by building
// that foundation out of the same substrates:
//
//  1. split rectangles into wide (w > eps') and narrow (w <= eps');
//  2. round wide widths up by linear grouping over the stacking
//     (release.GroupWidths with a single release class — the Fig. 3/4
//     machinery);
//  3. solve the configuration LP for the wide rectangles over every
//     configuration (release.SolveEnumerated with one phase) and convert
//     the basic optimum to an integral packing
//     (release.ToIntegralWithAreas);
//  4. pack the narrow rectangles with NFDH into the leftover width to the
//     right of each configuration band, and whatever remains above the
//     packing.
//
// The result is a valid packing of height (1+O(eps))·OPT + O(1/eps^2)
// asymptotically; the tests assert validity and the measured ratio against
// the fractional bound on random workloads.
package kr

import (
	"fmt"
	"slices"

	"strippack/internal/core/release"
	"strippack/internal/geom"
	"strippack/internal/packing"
)

// Options configures the scheme.
type Options struct {
	// Epsilon is the accuracy parameter (> 0). The wide/narrow threshold
	// and the group count derive from it.
	Epsilon float64
}

// Report describes a run.
type Report struct {
	Epsilon          float64
	Threshold        float64 // wide/narrow width threshold eps'
	Wide, Narrow     int
	Groups           int
	DistinctWidths   int
	Configs          int
	FractionalHeight float64 // OPTf of the grouped wide instance
	WideHeight       float64 // integral height of the wide packing
	Height           float64 // final height including narrow items
}

// Pack runs the scheme on an instance without precedence edges or release
// times. Heights may be arbitrary (they are normalized internally for the
// additive term only in the analysis, not in the code).
func Pack(in *geom.Instance, opts Options) (*geom.Packing, *Report, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if len(in.Prec) > 0 {
		return nil, nil, fmt.Errorf("kr: instance has precedence edges; use the DC algorithm")
	}
	for i, r := range in.Rects {
		if r.Release != 0 {
			return nil, nil, fmt.Errorf("kr: rect %d has a release time; use the release APTAS", i)
		}
	}
	if opts.Epsilon <= 0 {
		return nil, nil, fmt.Errorf("kr: epsilon must be positive, got %g", opts.Epsilon)
	}
	if in.N() == 0 {
		return nil, nil, fmt.Errorf("kr: empty instance")
	}
	w := in.StripWidth()
	epsPrime := opts.Epsilon / 3
	if epsPrime > 0.5 {
		epsPrime = 0.5
	}
	threshold := epsPrime * w
	groups := int(1/(epsPrime*epsPrime)) + 1
	rep := &Report{Epsilon: opts.Epsilon, Threshold: threshold, Groups: groups}

	var wideIDs, narrowIDs []int
	for i, r := range in.Rects {
		if r.W > threshold {
			wideIDs = append(wideIDs, i)
		} else {
			narrowIDs = append(narrowIDs, i)
		}
	}
	rep.Wide, rep.Narrow = len(wideIDs), len(narrowIDs)

	p := geom.NewPacking(in)
	var areas []release.ReservedArea
	top := 0.0

	if len(wideIDs) > 0 {
		wideRects := make([]geom.Rect, len(wideIDs))
		for k, id := range wideIDs {
			wideRects[k] = in.Rects[id]
			wideRects[k].Release = 0
		}
		wideIn := geom.NewInstance(w, wideRects)
		grouped, err := release.GroupWidths(wideIn, groups)
		if err != nil {
			return nil, nil, err
		}
		fs, err := release.SolveEnumerated(grouped)
		if err != nil {
			return nil, nil, err
		}
		rep.DistinctWidths = len(fs.Model.Widths)
		rep.Configs = len(fs.Model.Configs)
		rep.FractionalHeight = fs.Height
		ir, err := release.ToIntegralWithAreas(grouped, fs)
		if err != nil {
			return nil, nil, err
		}
		// Transfer wide placements back to the original indices (original
		// widths are narrower than the grouped ones, so positions remain
		// feasible).
		for k, id := range wideIDs {
			p.Pos[id] = ir.Packing.Pos[k]
			if t := ir.Packing.Pos[k].Y + in.Rects[id].H; t > top {
				top = t
			}
		}
		areas = ir.Areas
	}
	rep.WideHeight = top

	if err := packNarrow(in, p, narrowIDs, areas, &top); err != nil {
		return nil, nil, err
	}
	rep.Height = top
	return p, rep, nil
}

// packNarrow fills narrow rectangles into the leftover width of each
// reserved area (NFDH shelves restricted to [usedWidth, strip]) and then
// above the packing across the full strip width. top is updated in place.
func packNarrow(in *geom.Instance, p *geom.Packing, narrowIDs []int, areas []release.ReservedArea, top *float64) error {
	if len(narrowIDs) == 0 {
		return nil
	}
	w := in.StripWidth()
	// Non-increasing height order (NFDH discipline).
	order := append([]int(nil), narrowIDs...)
	// narrowIDs is id-ascending, so the id tie-break keeps the
	// reflection-free sort stable.
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case in.Rects[a].H > in.Rects[b].H:
			return -1
		case in.Rects[a].H < in.Rects[b].H:
			return 1
		default:
			return a - b
		}
	})
	next := 0

	// Fill each leftover region bottom-up.
	for _, a := range areas {
		avail := w - a.UsedWidth
		if avail <= geom.Eps || next >= len(order) {
			continue
		}
		shelfY := a.Y0
		for next < len(order) {
			// Open a shelf at shelfY with the height of the next item.
			h := in.Rects[order[next]].H
			if shelfY+h > a.Y1+geom.Eps {
				break // no vertical room left in this region
			}
			x := a.UsedWidth
			placedAny := false
			for next < len(order) {
				r := in.Rects[order[next]]
				if x+r.W > w+geom.Eps {
					break
				}
				p.Set(order[next], x, shelfY)
				x += r.W
				placedAny = true
				next++
			}
			if !placedAny {
				break // item wider than the leftover region
			}
			shelfY += h
		}
	}
	// Whatever remains goes above the packing with full-width NFDH. Shelves
	// inside a reserved area rise above the wide rectangles' top whenever
	// the LP reserved more height than the area's columns filled, so the
	// remainder starts above the narrow rectangles placed so far.
	if next < len(order) {
		for _, id := range order[:next] {
			if t := p.Pos[id].Y + in.Rects[id].H; t > *top {
				*top = t
			}
		}
		rest := make([]geom.Rect, 0, len(order)-next)
		ids := order[next:]
		for _, id := range ids {
			rest = append(rest, in.Rects[id])
		}
		res, err := packing.NFDH(w, rest)
		if err != nil {
			return err
		}
		base := *top
		for k, id := range ids {
			p.Set(id, res.Pos[k].X, base+res.Pos[k].Y)
		}
		if base+res.Height > *top {
			*top = base + res.Height
		}
	}
	// Recompute top over narrow placements inside regions too.
	for _, id := range narrowIDs {
		if t := p.Pos[id].Y + in.Rects[id].H; t > *top {
			*top = t
		}
	}
	return nil
}
