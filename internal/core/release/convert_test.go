package release

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"strippack/internal/geom"
)

// toIntegralScan is the reference Lemma 3.4 conversion ToIntegralWithAreas
// replaced: every pick scans its width class backwards, skipping placed
// and not yet released rectangles, for the latest release <= limit.
func toIntegralScan(in *geom.Instance, fs *FractionalSolution) (*IntegralResult, error) {
	m := fs.Model
	p := geom.NewPacking(in)
	placed := make([]bool, in.N())
	byWidth := make([][]int, len(m.Widths))
	for id, r := range in.Rects {
		i, err := m.widthIndex(r.W)
		if err != nil {
			return nil, err
		}
		byWidth[i] = append(byWidth[i], id)
	}
	for i := range byWidth {
		slices.SortFunc(byWidth[i], func(a, b int) int {
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
	takeLatest := func(i int, limit float64) int {
		ids := byWidth[i]
		for k := len(ids) - 1; k >= 0; k-- {
			id := ids[k]
			if placed[id] {
				continue
			}
			if in.Rects[id].Release <= limit+geom.Eps {
				placed[id] = true
				return id
			}
		}
		return -1
	}
	res := &IntegralResult{Packing: p}
	y := 0.0
	for j := 0; j < m.NumPhases(); j++ {
		if m.Releases[j] > y {
			y = m.Releases[j]
		}
		for q := range m.Configs {
			x := fs.X[q][j]
			if x <= 0 {
				continue
			}
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
			res.Areas = append(res.Areas, ReservedArea{Y0: y, Y1: areaTop, UsedWidth: xOff, Phase: j, Config: q})
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

// TestToIntegralMatchesBackwardScan: the per-class stacks pick exactly the
// rectangles the backward scan picks, so placements and reserved areas are
// identical, on the instance shapes that stress the pick rule.
func TestToIntegralMatchesBackwardScan(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	shapes := []struct {
		name string
		gen  func() *geom.Instance
		// model solves the instance's configuration LP.
		model func(*geom.Instance) (*FractionalSolution, error)
	}{
		{"tied releases", func() *geom.Instance {
			in := fpgaInstance(rng, 20+rng.Intn(60), 4, 0)
			for i := range in.Rects {
				in.Rects[i].Release = 0.5 * float64(rng.Intn(4))
			}
			return in
		}, oneShotCG},
		// The model is solved for whole releases and the conversion runs
		// on releases up to Eps later, which its tolerance admits.
		{"releases within Eps", func() *geom.Instance {
			in := fpgaInstance(rng, 20+rng.Intn(40), 4, 0)
			for i := range in.Rects {
				in.Rects[i].Release = float64(rng.Intn(3)) + geom.Eps*rng.Float64()
			}
			return in
		}, func(in *geom.Instance) (*FractionalSolution, error) {
			whole := in.Clone()
			for i := range whole.Rects {
				whole.Rects[i].Release = math.Floor(whole.Rects[i].Release)
			}
			return oneShotCG(whole)
		}},
		{"continuous widths", func() *geom.Instance {
			return contInstance(rng, 4+rng.Intn(10), 3, 2)
		}, oneShotCG},
		{"one-phase model", func() *geom.Instance {
			in := fpgaInstance(rng, 20+rng.Intn(200), 6, 0)
			grouped, err := GroupWidths(in, 4)
			if err != nil {
				t.Fatal(err)
			}
			return grouped
		}, func(in *geom.Instance) (*FractionalSolution, error) {
			m, err := BuildModel(in, 0)
			if err != nil {
				return nil, err
			}
			return SolveModel(m)
		}},
		{"rounded and grouped", func() *geom.Instance {
			in := fpgaInstance(rng, 200+rng.Intn(400), 8, 50)
			reduced, _, err := RoundReleases(in, 2)
			if err != nil {
				t.Fatal(err)
			}
			if reduced, err = GroupWidths(reduced, 24); err != nil {
				t.Fatal(err)
			}
			return reduced
		}, oneShotCG},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 12; trial++ {
			in := sh.gen()
			fs, err := sh.model(in)
			if err != nil {
				t.Fatalf("%s trial %d: %v", sh.name, trial, err)
			}
			want, wantErr := toIntegralScan(in, fs)
			got, err := ToIntegralWithAreas(in, fs)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s trial %d: error %v, reference %v", sh.name, trial, err, wantErr)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("%s trial %d: error %v, reference %v", sh.name, trial, err, wantErr)
				}
				continue
			}
			if !slices.Equal(got.Packing.Pos, want.Packing.Pos) {
				t.Fatalf("%s trial %d: placements differ from the backward scan", sh.name, trial)
			}
			if !slices.Equal(got.Areas, want.Areas) {
				t.Fatalf("%s trial %d: areas %v, reference %v", sh.name, trial, got.Areas, want.Areas)
			}
		}
	}
}

func oneShotCG(in *geom.Instance) (*FractionalSolution, error) {
	fs, _, err := SolveCG(in)
	return fs, err
}

// TestStackingMatchesStableSort: Stacking's position tie-break reproduces
// the stable sort by non-increasing width for any caller order of ids,
// including shuffled ids with heavy width ties.
func TestStackingMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		in := fpgaInstance(rng, n, 1+rng.Intn(8), 1)
		ids := rng.Perm(n)[:1+rng.Intn(n)]
		want := slices.Clone(ids)
		slices.SortStableFunc(want, func(a, b int) int {
			switch {
			case in.Rects[a].W > in.Rects[b].W:
				return -1
			case in.Rects[a].W < in.Rects[b].W:
				return 1
			default:
				return 0
			}
		})
		order, base := Stacking(in, ids)
		if !slices.Equal(order, want) {
			t.Fatalf("trial %d: order %v, stable sort %v", trial, order, want)
		}
		y := 0.0
		for k, id := range want {
			if base[k] != y {
				t.Fatalf("trial %d: base[%d] = %v, want %v", trial, k, base[k], y)
			}
			y += in.Rects[id].H
		}
	}
}
