package release

import (
	"fmt"
	"sync"

	"strippack/internal/geom"
)

// Solver is a reusable column-generation engine: a SolveCG front-end wrapping
// a persistent column pool per (strip width, distinct width set) key. Each
// Solve bulk-loads the pooled configurations into the fresh restricted
// master (one lp.Revised.AddColumns batch after a Reserve sized from the
// pool), so pricing starts near-optimal and warm solves typically converge
// in 1-3 rounds instead of tens; the configurations a solve generates are
// appended back to the pool (deduped by packed multiplicity vector) for the
// next request. The experiment grids (E6/E8/E11/E12) and any long-running
// bound service issue hundreds of near-identical solves over the same width
// set, which is the shape the pool exists for. Like FractionalLowerBound,
// Solver starts each master from the crash basis, so a fresh Solver's
// first solve of a width set sees an empty pool and reproduces the
// one-shot FractionalLowerBound solve exactly (not SolveCG, which keeps
// the artificial start).
//
// Determinism contract: a pooled solve still runs column generation to
// optimality, so its height is the configuration LP's optimum no matter
// which columns were seeded or which basis it started from — the pool and
// the crash start affect only the simplex path and therefore perturb
// results by LP round-off (within 1e-9 of the poolless SolveCG height,
// property- and fuzz-tested). Given a fixed solve sequence
// the pool state, the seeded column order (pool insertion order) and every
// result are fully reproducible; under concurrent use (RunGrid workers
// sharing a BoundCache) the interleaving may vary which snapshot a solve
// sees, moving results only within that same 1e-9 envelope — which the
// experiment tables' fixed-precision rendering absorbs, as `make
// determinism` enforces end-to-end across worker counts and pool on/off.
// SolveCG remains the reference oracle.
//
// Solver is safe for concurrent use.
type Solver struct {
	opts CGOptions

	mu    sync.Mutex
	pools map[string]*configPool
	stats SolverStats
}

// SolverStats aggregates pool activity across a Solver's lifetime.
type SolverStats struct {
	Solves        int // successful Solve calls
	WidthSets     int // distinct (strip width, width set) pools
	PoolHits      int // solves that bulk-loaded at least one pooled configuration
	PooledColumns int // configurations bulk-loaded across all solves
	NewColumns    int // configurations newly appended to pools across all solves
}

// NewSolver returns a Solver with empty pools whose solves use the given
// column-generation options.
func NewSolver(opts CGOptions) *Solver {
	return &Solver{opts: opts, pools: make(map[string]*configPool)}
}

// Solve runs the configuration LP of the instance through column generation
// warm-started from the pool of its width set, and feeds the generated
// configurations back. The returned solution and stats have the same shape
// as SolveCG's; CGStats.PooledColumns and CGStats.PoolHits report the warm
// start's size and usefulness.
func (s *Solver) Solve(in *geom.Instance) (*FractionalSolution, *CGStats, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	if in.N() == 0 {
		return nil, nil, fmt.Errorf("release: empty instance")
	}
	if s.opts.DisablePool {
		fs, st, err := solveCG(in, s.opts, nil, true)
		if err != nil {
			return nil, nil, err
		}
		s.mu.Lock()
		s.stats.Solves++
		s.mu.Unlock()
		return fs, st, nil
	}
	key := poolKey(in.StripWidth(), DistinctWidths(in))
	s.mu.Lock()
	pool, ok := s.pools[key]
	if !ok {
		pool = newConfigPool()
		s.pools[key] = pool
	}
	seed := pool.snapshot()
	s.mu.Unlock()

	fs, st, err := solveCG(in, s.opts, seed, true)
	if err != nil {
		return nil, nil, err
	}

	s.mu.Lock()
	added := 0
	for _, c := range fs.Model.Configs {
		if pool.add(c) {
			added++
		}
	}
	s.stats.Solves++
	s.stats.WidthSets = len(s.pools)
	if st.PooledColumns > 0 {
		s.stats.PoolHits++
	}
	s.stats.PooledColumns += st.PooledColumns
	s.stats.NewColumns += added
	s.mu.Unlock()
	return fs, st, nil
}

// Stats returns a snapshot of the aggregate pool statistics.
func (s *Solver) Stats() SolverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
