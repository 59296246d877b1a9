// Package exact provides an exact branch-and-bound solver for small strip
// packing instances, with optional precedence and release-time constraints.
// It supplies OPT reference values for the approximation-ratio experiments.
//
// Completeness rests on the normal-pattern argument: some optimal packing
// places every rectangle at an x that is a sum of widths of a subset of the
// other rectangles, and at a y that is a release time (or 0) plus a sum of
// heights of a subset. The solver enumerates exactly those candidate
// positions with pruning by the area bound, the critical-path bound, and
// the incumbent.
package exact

import (
	"fmt"
	"math"
	"sort"

	"strippack/internal/dag"
	"strippack/internal/geom"
)

// maxN is the largest instance Solve accepts; larger ones are rejected
// outright.
const maxN = 8

// Options bounds the search.
type Options struct {
	// NodeBudget caps explored search nodes (default 5e6); when exhausted
	// the result is an upper bound, reported via Result.Proven = false.
	NodeBudget int64
}

// Result of the exact solver.
type Result struct {
	// Height is the best height found (= OPT when Proven).
	Height float64
	// Packing realizes Height.
	Packing *geom.Packing
	// Proven reports whether the search completed within budget.
	Proven bool
	// Nodes is the number of explored search nodes.
	Nodes int64
}

type solver struct {
	in      *geom.Instance
	g       *dag.Graph
	w       float64
	xs, ys  []float64 // candidate coordinate grids
	order   []int     // placement order (topological, big first)
	pos     []geom.Placement
	placed  []bool
	best    float64
	bestPos []geom.Placement
	found   bool
	nodes   int64
	budget  int64
	fRem    []float64 // F value per rect (critical path to come, incl. itself)
}

// Solve runs branch and bound.
func Solve(in *geom.Instance, opts Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.N() > maxN {
		return nil, fmt.Errorf("exact: instance size %d exceeds cap %d", in.N(), maxN)
	}
	budget := opts.NodeBudget
	if budget <= 0 {
		budget = 5_000_000
	}
	g, err := dag.FromEdges(in.N(), in.Prec)
	if err != nil {
		return nil, err
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &solver{
		in: in, g: g, w: in.StripWidth(),
		pos:    make([]geom.Placement, in.N()),
		placed: make([]bool, in.N()),
		best:   math.Inf(1),
		budget: budget,
	}
	// Candidate x grid: subset sums of widths (capped), filtered to the
	// strip. Candidate y grid: subset sums of heights offset by each
	// release value (and 0).
	s.xs = subsetSums(widths(in), s.w)
	rels := []float64{0}
	seen := map[float64]bool{0: true}
	for _, r := range in.Rects {
		if !seen[r.Release] {
			seen[r.Release] = true
			rels = append(rels, r.Release)
		}
	}
	hsums := subsetSums(heights(in), math.Inf(1))
	ymax := in.MaxRelease()
	for _, r := range in.Rects {
		ymax += r.H
	}
	yset := map[float64]bool{}
	for _, r := range rels {
		for _, h := range hsums {
			v := r + h
			if v <= ymax+geom.Eps {
				yset[v] = true
			}
		}
	}
	for v := range yset {
		s.ys = append(s.ys, v)
	}
	sort.Float64s(s.ys)

	// Place in topological order; among free choices, larger area first
	// (stable reorder respecting topology).
	s.order = topo
	// F values for the critical-path pruning bound.
	h := heights(in)
	f, err := g.LongestPathF(h)
	if err != nil {
		return nil, err
	}
	// fRem[v]: longest path *starting* at v (v's height plus successors).
	rev := dag.New(in.N())
	for _, e := range g.Edges() {
		_ = rev.AddEdge(e[1], e[0])
	}
	fr, err := rev.LongestPathF(h)
	if err != nil {
		return nil, err
	}
	s.fRem = fr
	_ = f

	s.dfs(0, 0)
	res := &Result{Height: s.best, Proven: s.nodes < s.budget, Nodes: s.nodes}
	if !s.found {
		return nil, fmt.Errorf("exact: no packing found (unexpected)")
	}
	p := geom.NewPacking(in)
	copy(p.Pos, s.bestPos)
	res.Packing = p
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("exact: best packing invalid: %w", err)
	}
	return res, nil
}

func widths(in *geom.Instance) []float64 {
	out := make([]float64, in.N())
	for i, r := range in.Rects {
		out[i] = r.W
	}
	return out
}

func heights(in *geom.Instance) []float64 {
	out := make([]float64, in.N())
	for i, r := range in.Rects {
		out[i] = r.H
	}
	return out
}

// subsetSums returns the sorted distinct subset sums not exceeding limit.
func subsetSums(vals []float64, limit float64) []float64 {
	sums := map[float64]bool{0: true}
	for _, v := range vals {
		next := make(map[float64]bool, 2*len(sums))
		for s := range sums {
			next[s] = true
			if t := s + v; t <= limit+geom.Eps {
				next[t] = true
			}
		}
		sums = next
	}
	out := make([]float64, 0, len(sums))
	for s := range sums {
		out = append(out, s)
	}
	sort.Float64s(out)
	// Dedup with tolerance.
	dedup := out[:0]
	for _, v := range out {
		if len(dedup) == 0 || v-dedup[len(dedup)-1] > geom.Eps {
			dedup = append(dedup, v)
		}
	}
	return append([]float64(nil), dedup...)
}

func (s *solver) dfs(k int, cur float64) {
	s.nodes++
	if s.nodes >= s.budget {
		return
	}
	if k == len(s.order) {
		if cur < s.best-geom.Eps {
			s.best = cur
			s.bestPos = append(s.bestPos[:0], s.pos...)
			s.found = true
		}
		return
	}
	id := s.order[k]
	r := s.in.Rects[id]
	// Remaining-area pruning: total area of unplaced rects must fit under
	// s.best within the strip above... conservative: area bound over all.
	var remArea float64
	for i := k; i < len(s.order); i++ {
		remArea += s.in.Rects[s.order[i]].Area()
	}
	if remArea/s.w >= s.best+geom.Eps {
		// Even an empty current profile cannot beat best.
		return
	}
	// Earliest feasible y from precedence and release.
	minY := r.Release
	for _, u := range s.g.In(id) {
		if t := s.pos[u].Y + s.in.Rects[u].H; t > minY {
			minY = t
		}
	}
	// Critical-path prune: minY + longest chain from id is a height bound.
	if minY+s.fRem[id] >= s.best-geom.Eps {
		return
	}
	for _, y := range s.ys {
		if y < minY-geom.Eps {
			continue
		}
		if y+s.fRem[id] >= s.best-geom.Eps {
			break // ys sorted: all later y prune too
		}
		for _, x := range s.xs {
			if x+r.W > s.w+geom.Eps {
				break
			}
			if s.overlaps(id, x, y, k) {
				continue
			}
			s.pos[id] = geom.Placement{X: x, Y: y}
			nh := cur
			if t := y + r.H; t > nh {
				nh = t
			}
			s.dfs(k+1, nh)
			if s.nodes >= s.budget {
				return
			}
		}
	}
}

func (s *solver) overlaps(id int, x, y float64, k int) bool {
	r := s.in.Rects[id]
	for i := 0; i < k; i++ {
		o := s.order[i]
		if geom.RectsOverlap(r, geom.Placement{X: x, Y: y}, s.in.Rects[o], s.pos[o]) {
			return true
		}
	}
	return false
}
