package release

import (
	"fmt"
	"slices"

	"strippack/internal/geom"
)

// ToIntegral converts a fractional solution into an integral packing
// following Lemma 3.4: phases are processed bottom-up; every configuration
// occurrence (q, j) with x_{q,j} > 0 reserves a full-width area in phase j
// whose columns (one per width occurrence in q) are filled greedily with
// unplaced rectangles of the matching width that are already released.
// Among the available rectangles the one with the *latest* release is
// chosen; this priority makes the covering constraints guarantee that no
// rectangle is stranded. Each column may overflow its reserved height by
// less than the tallest rectangle (<= 1), so the final height is at most
// Height(fractional) + #occurrences, exactly Lemma 3.4's bound.
//
// The returned packing places the rectangles of `in`, which must be the
// instance the model was built from (or any instance whose rectangles have
// widths equal and release times no later — e.g. the original P when the
// model was built from P(R,W): pass P(R,W) here and reuse placements).
func ToIntegral(in *geom.Instance, fs *FractionalSolution) (*geom.Packing, error) {
	res, err := ToIntegralWithAreas(in, fs)
	if err != nil {
		return nil, err
	}
	return res.Packing, nil
}

// ReservedArea describes one realized configuration occurrence: the
// vertical band [Y0, Y1) whose columns were filled, the total width used by
// the configuration's columns, and its (phase, config) origin. The
// Kenyon-Rémila-style narrow-item filling packs small rectangles into the
// leftover width to the right of UsedWidth.
type ReservedArea struct {
	Y0, Y1    float64
	UsedWidth float64
	Phase     int
	Config    int
}

// IntegralResult is the packing together with the reserved-area layout.
type IntegralResult struct {
	Packing *geom.Packing
	Areas   []ReservedArea
}

// ToIntegralWithAreas is ToIntegral exposing the reserved areas.
//
// The conversion costs one O(n log n) sort plus O(n) picks in total: each
// width class is sorted by release once, and since phases run in release
// order the rectangles released by the phase limit form a growing prefix
// of the class, kept as a stack whose top is the latest-released pick.
func ToIntegralWithAreas(in *geom.Instance, fs *FractionalSolution) (*IntegralResult, error) {
	m := fs.Model
	p := geom.NewPacking(in)
	placed := make([]bool, in.N())

	// Per width class: rect ids sorted by release ascending; we pick from
	// the back among those released by the current phase start.
	class := make([]int, in.N())
	size := make([]int, len(m.Widths))
	for id, r := range in.Rects {
		i, err := m.widthIndex(r.W)
		if err != nil {
			return nil, err
		}
		class[id] = i
		size[i]++
	}
	back := make([]int, in.N())
	byWidth := make([][]int, len(m.Widths))
	off := 0
	for i, n := range size {
		byWidth[i] = back[off : off : off+n]
		off += n
	}
	for id, i := range class {
		byWidth[i] = append(byWidth[i], id)
	}
	for i := range byWidth {
		ids := byWidth[i]
		// byWidth rows are id-ascending, so the id tie-break keeps the
		// reflection-free sort stable.
		slices.SortFunc(ids, func(a, b int) int {
			switch {
			case in.Rects[a].Release < in.Rects[b].Release:
				return -1
			case in.Rects[a].Release > in.Rects[b].Release:
				return 1
			default:
				return a - b
			}
		})
	}

	// takeLatest removes and returns the unplaced rect of width class i
	// with the latest release <= limit (the later class position on ties),
	// or -1. The limit never decreases, so each class is an in-place
	// stack: ids[:top[i]] are released and unplaced, in class order, and
	// ids[next[i]:] are not yet released.
	top := make([]int, len(byWidth))
	next := make([]int, len(byWidth))
	takeLatest := func(i int, limit float64) int {
		ids := byWidth[i]
		for next[i] < len(ids) && in.Rects[ids[next[i]]].Release <= limit+geom.Eps {
			ids[top[i]] = ids[next[i]]
			top[i]++
			next[i]++
		}
		if top[i] == 0 {
			return -1
		}
		top[i]--
		id := ids[top[i]]
		placed[id] = true
		return id
	}

	res := &IntegralResult{Packing: p, Areas: make([]ReservedArea, 0, fs.Occurrences)}
	y := 0.0
	phases := m.NumPhases()
	for j := 0; j < phases; j++ {
		if m.Releases[j] > y {
			y = m.Releases[j]
		}
		for q := range m.Configs {
			x := fs.X[q][j]
			if x <= 0 {
				continue
			}
			// Reserved area for occurrence (q, j) at base y.
			areaTop := y + x
			xOff := 0.0
			for i, count := range m.Configs[q].Counts {
				for c := 0; c < count; c++ {
					colY := y
					for colY < y+x-geom.Eps {
						id := takeLatest(i, m.Releases[j])
						if id == -1 {
							break
						}
						p.Set(id, xOff, colY)
						colY += in.Rects[id].H
					}
					if colY > areaTop {
						areaTop = colY
					}
					xOff += m.Widths[i]
				}
			}
			res.Areas = append(res.Areas, ReservedArea{
				Y0: y, Y1: areaTop, UsedWidth: xOff, Phase: j, Config: q,
			})
			y = areaTop
		}
	}
	for id, ok := range placed {
		if !ok {
			return nil, fmt.Errorf("release: rectangle %d stranded by the greedy conversion", id)
		}
	}
	return res, nil
}

// AdaptToOriginal transfers placements computed for the reduced instance
// (wider rectangles, later releases) back onto the original instance: the
// same (x, y) positions remain feasible because each original rectangle is
// no wider and no later-released than its reduced counterpart.
func AdaptToOriginal(orig *geom.Instance, reduced *geom.Packing) (*geom.Packing, error) {
	if orig.N() != reduced.Instance.N() {
		return nil, fmt.Errorf("release: instance size mismatch %d vs %d", orig.N(), reduced.Instance.N())
	}
	for i := range orig.Rects {
		ro, rr := orig.Rects[i], reduced.Instance.Rects[i]
		if ro.W > rr.W+geom.Eps {
			return nil, fmt.Errorf("release: rect %d wider in original (%g > %g)", i, ro.W, rr.W)
		}
		if ro.Release > rr.Release+geom.Eps {
			return nil, fmt.Errorf("release: rect %d released later in original", i)
		}
		if ro.H != rr.H {
			return nil, fmt.Errorf("release: rect %d height changed", i)
		}
	}
	p := geom.NewPacking(orig)
	copy(p.Pos, reduced.Pos)
	return p, nil
}
