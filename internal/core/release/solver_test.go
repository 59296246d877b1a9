package release

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"strippack/internal/geom"
)

// fullWidthInstance builds an FPGA-style instance guaranteed to contain
// every width 1/K..K/K, so any two share the pool key and warm starts are
// exercised deterministically.
func fullWidthInstance(rng *rand.Rand, n, K int, maxRelease float64) *geom.Instance {
	rects := make([]geom.Rect, 0, n)
	for i := 1; i <= K; i++ {
		rects = append(rects, geom.Rect{
			W:       float64(i) / float64(K),
			H:       0.1 + 0.9*rng.Float64(),
			Release: maxRelease * rng.Float64(),
		})
	}
	for len(rects) < n {
		rects = append(rects, geom.Rect{
			W:       float64(1+rng.Intn(K)) / float64(K),
			H:       0.1 + 0.9*rng.Float64(),
			Release: maxRelease * rng.Float64(),
		})
	}
	return geom.NewInstance(1, rects)
}

// TestSolverEmptyPoolIdenticalToBoundPath: a fresh Solver's first solve of
// a width set sees an empty pool and must reproduce FractionalLowerBound's
// crash-started solve byte for byte — same configurations, same solution
// matrix, same stats.
func TestSolverEmptyPoolIdenticalToBoundPath(t *testing.T) {
	rng := rand.New(rand.NewSource(461))
	for trial := 0; trial < 10; trial++ {
		var in *geom.Instance
		if trial%2 == 0 {
			in = fpgaInstance(rng, 5+rng.Intn(10), 3, 2*rng.Float64())
		} else {
			in = contInstance(rng, 4+rng.Intn(6), 3, 1.5*rng.Float64())
		}
		want, wantSt, err := solveCG(in, CGOptions{}, nil, true)
		if err != nil {
			t.Fatalf("trial %d: bound path: %v", trial, err)
		}
		got, gotSt, err := NewSolver(CGOptions{}).Solve(in)
		if err != nil {
			t.Fatalf("trial %d: Solver.Solve: %v", trial, err)
		}
		if !reflect.DeepEqual(want.Model.Configs, got.Model.Configs) ||
			!reflect.DeepEqual(want.X, got.X) ||
			want.Height != got.Height ||
			!reflect.DeepEqual(wantSt, gotSt) {
			t.Fatalf("trial %d: empty-pool solve diverges from the bound path: %+v vs %+v",
				trial, wantSt, gotSt)
		}
	}
}

// TestSolverPooledMatchesFresh is the pool equivalence property test:
// across randomized solve orders and repeated passes over a mixed batch of
// instances (several shared width sets, some unique), every pooled height
// matches the poolless SolveCG height within 1e-9.
func TestSolverPooledMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(463))
	for trial := 0; trial < 6; trial++ {
		var ins []*geom.Instance
		for b := 0; b < 9; b++ {
			switch b % 3 {
			case 0:
				ins = append(ins, fullWidthInstance(rng, 5+rng.Intn(8), 3, 2*rng.Float64()))
			case 1:
				ins = append(ins, fullWidthInstance(rng, 5+rng.Intn(8), 4, 2*rng.Float64()))
			default:
				ins = append(ins, contInstance(rng, 4+rng.Intn(6), 3, 1.5*rng.Float64()))
			}
		}
		fresh := make([]float64, len(ins))
		for i, in := range ins {
			fs, _, err := SolveCG(in, CGOptions{})
			if err != nil {
				t.Fatalf("trial %d: fresh solve %d: %v", trial, i, err)
			}
			fresh[i] = fs.Height
		}
		s := NewSolver(CGOptions{})
		for pass := 0; pass < 2; pass++ {
			for _, i := range rng.Perm(len(ins)) {
				fs, _, err := s.Solve(ins[i])
				if err != nil {
					t.Fatalf("trial %d pass %d: pooled solve %d: %v", trial, pass, i, err)
				}
				if math.Abs(fs.Height-fresh[i]) > 1e-9 {
					t.Fatalf("trial %d pass %d: pooled height %g vs fresh %g (Δ=%g)",
						trial, pass, fs.Height, fresh[i], fs.Height-fresh[i])
				}
			}
		}
	}
}

// TestSolverPoolReuse: the second solve over a shared width set bulk-loads
// the first solve's configurations and converges in no more rounds than a
// cold solve.
func TestSolverPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(467))
	s := NewSolver(CGOptions{})
	a := fullWidthInstance(rng, 12, 4, 2)
	b := fullWidthInstance(rng, 12, 4, 2)
	_, stA, err := s.Solve(a)
	if err != nil {
		t.Fatal(err)
	}
	if stA.PooledColumns != 0 || stA.PoolHits != 0 {
		t.Fatalf("cold solve reports pool activity: %+v", stA)
	}
	_, coldB, err := SolveCG(b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fsB, stB, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if stB.PooledColumns == 0 {
		t.Fatalf("warm solve loaded no pooled configurations: %+v", stB)
	}
	if stB.Rounds > coldB.Rounds {
		t.Fatalf("warm solve took %d rounds, cold %d", stB.Rounds, coldB.Rounds)
	}
	if stB.PoolHits > stB.PooledColumns {
		t.Fatalf("PoolHits %d exceeds PooledColumns %d", stB.PoolHits, stB.PooledColumns)
	}
	coldFs, _, err := SolveCG(b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fsB.Height-coldFs.Height) > 1e-9 {
		t.Fatalf("warm height %g vs cold %g", fsB.Height, coldFs.Height)
	}
	st := s.Stats()
	if st.Solves != 2 || st.WidthSets != 1 || st.PoolHits != 1 ||
		st.PooledColumns != stB.PooledColumns || st.NewColumns == 0 {
		t.Fatalf("solver stats %+v", st)
	}
}

// TestSolverDisablePool: with the pool off every solve runs cold and no
// pool state accumulates.
func TestSolverDisablePool(t *testing.T) {
	rng := rand.New(rand.NewSource(479))
	s := NewSolver(CGOptions{DisablePool: true})
	in := fullWidthInstance(rng, 10, 3, 2)
	for i := 0; i < 2; i++ {
		_, st, err := s.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if st.PooledColumns != 0 || st.PoolHits != 0 {
			t.Fatalf("solve %d pooled with DisablePool: %+v", i, st)
		}
	}
	st := s.Stats()
	if st.Solves != 2 || st.WidthSets != 0 || st.PooledColumns != 0 || st.NewColumns != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSolverValidation mirrors TestSolveCGValidation through the Solver
// front-end.
func TestSolverValidation(t *testing.T) {
	s := NewSolver(CGOptions{})
	if _, _, err := s.Solve(geom.NewInstance(1, nil)); err == nil {
		t.Fatal("empty instance accepted")
	}
	wide := geom.NewInstance(1, []geom.Rect{{W: 2, H: 1}})
	if _, _, err := s.Solve(wide); err == nil {
		t.Fatal("over-wide rectangle accepted")
	}
	if st := s.Stats(); st.Solves != 0 {
		t.Fatalf("failed solves counted: %+v", st)
	}
}

// TestSolverConcurrent hammers one Solver from many goroutines over a
// mixed instance set (shared and distinct width sets) — the RunGrid shape
// `make race` checks — and verifies every result stays within the 1e-9
// envelope of the poolless reference.
func TestSolverConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(487))
	var ins []*geom.Instance
	for b := 0; b < 6; b++ {
		ins = append(ins, fullWidthInstance(rng, 6+rng.Intn(6), 2+b%3, 2*rng.Float64()))
	}
	fresh := make([]float64, len(ins))
	for i, in := range ins {
		fs, _, err := SolveCG(in, CGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = fs.Height
	}
	s := NewSolver(CGOptions{Workers: 1})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, in := range ins {
					fs, _, err := s.Solve(in)
					if err != nil {
						errs[g] = err
						return
					}
					if math.Abs(fs.Height-fresh[i]) > 1e-9 {
						errs[g] = fmt.Errorf("instance %d: pooled %g vs fresh %g", i, fs.Height, fresh[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if st := s.Stats(); st.Solves != 8*3*len(ins) {
		t.Fatalf("stats %+v, want %d solves", st, 8*3*len(ins))
	}
}

// TestBoundCacheCachesErrors: a failing instance pays for its diagnosis
// once; repeats replay the memoized error as hits.
func TestBoundCacheCachesErrors(t *testing.T) {
	c := NewBoundCache(CGOptions{})
	bad := geom.NewInstance(1, []geom.Rect{{W: 2, H: 1}})
	_, first := c.FractionalLowerBound(bad)
	if first == nil {
		t.Fatal("over-wide rectangle accepted")
	}
	for i := 0; i < 2; i++ {
		_, err := c.FractionalLowerBound(bad)
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("replay %d: got %v, want %v", i, err, first)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// FuzzSolverPool interleaves solves over instances that share and differ
// in width sets through one Solver and cross-checks every pooled height,
// and every one-shot FractionalLowerBound, against the poolless SolveCG
// oracle.
func FuzzSolverPool(f *testing.F) {
	f.Add(int64(1), uint8(0x35))
	f.Add(int64(97), uint8(0xC2))
	f.Add(int64(-4242), uint8(0x1F))
	f.Fuzz(func(t *testing.T, seed int64, mix uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := NewSolver(CGOptions{})
		for i := 0; i < 5; i++ {
			K := 2 + int(mix>>(uint(i)%7)&3)%3 // 2..4, varies with i: width sets repeat and differ
			var in *geom.Instance
			if (mix>>uint(i))&1 == 0 {
				in = fullWidthInstance(rng, 4+rng.Intn(6), K, 2*rng.Float64())
			} else {
				in = contInstance(rng, 3+rng.Intn(5), K, 1.5*rng.Float64())
			}
			want, _, err := SolveCG(in, CGOptions{})
			if err != nil {
				t.Fatalf("solve %d: fresh: %v", i, err)
			}
			got, _, err := s.Solve(in)
			if err != nil {
				t.Fatalf("solve %d: pooled: %v", i, err)
			}
			if math.Abs(got.Height-want.Height) > 1e-9 {
				t.Fatalf("solve %d: pooled height %g vs fresh %g (Δ=%g)",
					i, got.Height, want.Height, got.Height-want.Height)
			}
			bound, err := FractionalLowerBound(in, CGOptions{})
			if err != nil {
				t.Fatalf("solve %d: bound: %v", i, err)
			}
			if math.Abs(bound-want.Height) > 1e-9 {
				t.Fatalf("solve %d: FractionalLowerBound %g vs SolveCG %g (Δ=%g)",
					i, bound, want.Height, bound-want.Height)
			}
		}
	})
}
