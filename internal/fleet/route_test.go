package fleet

import (
	"math"
	"math/rand"
	"testing"

	"strippack/internal/fpga"
)

// leastScan is the linear least-loaded scan, the tournament tree's
// oracle: the first shard with at least w columns, replaced by any later
// eligible shard with a strictly lower score.
func leastScan(score []float64, cols []int, w int) int {
	best := -1
	for j := range score {
		if w <= cols[j] && (best < 0 || score[j] < score[best]) {
			best = j
		}
	}
	return best
}

// scanRouter is the reference router: the least and p2c rules over a
// plain score vector, with the linear scan for least and for p2c's
// fallback. It returns lane-local shard indices (-1 = no shard fits).
type scanRouter struct {
	route     Route
	cols      []int
	score     []float64
	rng       *rand.Rand
	fallbacks int // p2c picks where neither candidate fit
}

func (o *scanRouter) pick(sp *fpga.TaskSpec) int {
	fits := func(j int) bool { return sp.Cols <= o.cols[j] }
	j := -1
	switch o.route {
	case RouteLeast:
		j = leastScan(o.score, o.cols, sp.Cols)
	case RouteP2C:
		a, b := o.rng.Intn(len(o.cols)), o.rng.Intn(len(o.cols))
		switch {
		case fits(a) && fits(b):
			j = a
			if o.score[b] < o.score[a] || (o.score[b] == o.score[a] && b < a) {
				j = b
			}
		case fits(a):
			j = a
		case fits(b):
			j = b
		default:
			o.fallbacks++
			j = leastScan(o.score, o.cols, sp.Cols)
		}
	}
	if j >= 0 {
		o.score[j] += float64(sp.Cols) * sp.Duration / float64(o.cols[j])
	}
	return j
}

// tieScore draws from a small grid so exact ties are common, with the odd
// infinity or NaN a non-finite duration would leave behind.
func tieScore(rng *rand.Rand) float64 {
	switch rng.Intn(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	}
	return float64(rng.Intn(6)) / 4
}

func randomCols(rng *rand.Rand, n int) []int {
	cols := make([]int, n)
	widths := []int{4, 8, 16, 32}
	homogeneous := rng.Intn(3) == 0
	for j := range cols {
		cols[j] = widths[rng.Intn(len(widths))]
		if homogeneous {
			cols[j] = 16
		}
	}
	return cols
}

// TestLoadTreeMatchesScan drives the tree and the scan through the same
// interleaved score updates and rebuilds, on lanes of every size up to 70
// (powers of two and not), homogeneous and mixed column counts, and
// compares the pick for every width from 0 to one past the widest shard.
func TestLoadTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70)
		cols := randomCols(rng, n)
		lt := loadTree{score: make([]float64, n)}
		reset := func() {
			for j := range lt.score {
				lt.score[j] = tieScore(rng)
			}
			lt.rebuild(cols)
		}
		reset()
		for step := 0; step < 60; step++ {
			for w := 0; w <= 33; w++ {
				if got, want := lt.least(w), leastScan(lt.score, cols, w); got != want {
					t.Fatalf("trial %d step %d: width %d picks %d, scan %d (scores %v, cols %v)",
						trial, step, w, got, want, lt.score, cols)
				}
			}
			if rng.Intn(10) == 0 {
				reset()
				continue
			}
			d := float64(rng.Intn(4)) / 4
			if rng.Intn(30) == 0 {
				d = tieScore(rng)
			}
			lt.add(rng.Intn(n), d)
		}
	}
}

// TestRouteMatchesScan routes random batches through the fleet's least and
// p2c lanes on mixed column counts and through scanRouter from the same
// barrier scores and rng seed: every pick, including p2c's fallback when
// neither candidate fits and the refusal of a task wider than every shard,
// must agree.
func TestRouteMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fallbacks := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		cols := randomCols(rng, 2*n)
		for ti, route := range []Route{RouteLeast, RouteP2C} {
			f, err := New(Config{
				Shards: 2 * n, ShardCols: cols, Policy: fpga.ReclaimCompact, Seed: int64(trial),
				Tenants: []Tenant{{Name: "least", Shards: n, Route: RouteLeast}, {Name: "p2c", Shards: n, Route: RouteP2C}},
			})
			if err != nil {
				t.Fatal(err)
			}
			ln := &f.lanes[ti]
			oracle := &scanRouter{route: route, cols: cols[ln.first : ln.first+n],
				score: make([]float64, n), rng: rand.New(rand.NewSource(int64(trial + ti)))}
			for batch := 0; batch < 8; batch++ {
				for j := range ln.load.score {
					ln.load.score[j] = float64(rng.Intn(5))
				}
				ln.load.rebuild(f.cols[ln.first : ln.first+n])
				copy(oracle.score, ln.load.score)
				for i := 0; i < 40; i++ {
					sp := fpga.TaskSpec{ID: i, Cols: 1 + rng.Intn(34), Duration: float64(1 + rng.Intn(3))}
					want := oracle.pick(&sp)
					got, err := f.route(ln, &sp)
					if want < 0 {
						if err == nil {
							t.Fatalf("trial %d %v: task of width %d routed to %d, scan refuses it", trial, route, sp.Cols, got)
						}
						continue
					}
					if err != nil || got != ln.first+want {
						t.Fatalf("trial %d %v batch %d task %d (width %d): routed to %d (%v), scan picks %d",
							trial, route, batch, i, sp.Cols, got, err, ln.first+want)
					}
				}
			}
			fallbacks += oracle.fallbacks
		}
	}
	if fallbacks == 0 {
		t.Fatal("no p2c pick fell back to the least-loaded query")
	}
}

// BenchmarkFleetRoute times the routing pass alone — the barrier refresh
// and the in-order routing of one 1024-task churn batch into 64 shards'
// sub-batches — for each route. No shard work runs.
func BenchmarkFleetRoute(b *testing.B) {
	const shards, K, batch = 64, 16, 1024
	specs := Specs(churnTrace(b, 3, batch, K, 0.8*shards), 0)
	for _, route := range []Route{RouteRR, RouteLeast, RouteP2C} {
		b.Run(route.String(), func(b *testing.B) {
			f, err := New(Config{Shards: shards, Columns: K, Policy: fpga.ReclaimCompact, Route: route, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			t := &f.lanes[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if t.needScores {
					f.refresh(t)
				}
				if err := f.routeBatch(t, specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
