package release

import (
	"encoding/binary"
	"math"
	"sync"

	"strippack/internal/geom"
)

// BoundCache memoizes FractionalLowerBound solves keyed by an instance
// fingerprint, deduplicating the repeated configuration-LP solves the
// experiment grids issue: an ablation that sweeps a parameter (E6's ε,
// E8's base instance across R rows) re-solves the identical instance once
// per grid cell without it. Misses solve through an owned Solver, so the
// cache memoizes the *work* of column generation (the cross-solve column
// pool, shared across distinct instances over the same width set) as well
// as the *answers*; errors are cached alongside heights, so a failing
// instance pays its diagnosis once. The cache is safe for concurrent use
// from RunGrid workers, and because a pooled solve still runs column
// generation to optimality (see Solver), memoization never changes a
// result beyond LP round-off — only how often it is computed.
type BoundCache struct {
	solver *Solver

	mu     sync.Mutex
	bounds map[string]float64
	errs   map[string]error
	hits   int
	misses int
}

// NewBoundCache returns an empty cache whose solves use the given
// column-generation options (set opts.DisablePool to memoize answers
// only, reproducing the one-shot FractionalLowerBound on every miss).
func NewBoundCache(opts CGOptions) *BoundCache {
	return &BoundCache{
		solver: NewSolver(opts),
		bounds: make(map[string]float64),
		errs:   make(map[string]error),
	}
}

// fingerprint is the cache key: strip width, every rectangle's
// (width, height, release) bit pattern in order, and the precedence edge
// list. Rect order is part of the key — reordering an instance does not
// change OPTf, but the experiments only ever repeat byte-identical
// instances, and a conservative key can never alias two different ones.
// The edges must be part of the key for the same reason: two instances
// differing only in Instance.Prec would otherwise share an entry.
func fingerprint(in *geom.Instance) string {
	b := make([]byte, 0, 8*(2+3*len(in.Rects)+2*len(in.Prec)))
	put := func(f float64) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	put(in.StripWidth())
	for _, r := range in.Rects {
		put(r.W)
		put(r.H)
		put(r.Release)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(in.Prec)))
	for _, e := range in.Prec {
		b = binary.LittleEndian.AppendUint64(b, uint64(e[0])<<32|uint64(uint32(e[1])))
	}
	return string(b)
}

// FractionalLowerBound returns OPTf of the instance, solving via the owned
// Solver on a miss and replaying the memoized height — or the memoized
// error — on a hit.
func (c *BoundCache) FractionalLowerBound(in *geom.Instance) (float64, error) {
	key := fingerprint(in)
	c.mu.Lock()
	if h, ok := c.bounds[key]; ok {
		c.hits++
		c.mu.Unlock()
		return h, nil
	}
	if err, ok := c.errs[key]; ok {
		c.hits++
		c.mu.Unlock()
		return 0, err
	}
	c.misses++
	c.mu.Unlock()
	fs, _, err := c.solver.Solve(in)
	if err != nil {
		c.mu.Lock()
		c.errs[key] = err
		c.mu.Unlock()
		return 0, err
	}
	c.mu.Lock()
	c.bounds[key] = fs.Height
	c.mu.Unlock()
	return fs.Height, nil
}

// Stats reports cache hits and misses so far.
func (c *BoundCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// SolverStats reports the pool activity of the cache's owned Solver.
func (c *BoundCache) SolverStats() SolverStats {
	return c.solver.Stats()
}
