package release

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"strippack/internal/geom"
)

// maxHeight returns the tallest rectangle height: the most one occurrence
// can overflow by in Lemma 3.4's conversion.
func maxHeight(in *geom.Instance) float64 {
	var h float64
	for _, r := range in.Rects {
		h = max(h, r.H)
	}
	return h
}

// Items returns the total number of rectangles in the configuration.
func (c Config) Items() int {
	n := 0
	for _, k := range c.Counts {
		n += k
	}
	return n
}

// fpgaInstance generates rectangles with column-quantized widths i/K and
// heights/releases in [0,1] ranges, mirroring the paper's FPGA motivation.
func fpgaInstance(rng *rand.Rand, n, K int, maxRelease float64) *geom.Instance {
	rects := make([]geom.Rect, n)
	for i := range rects {
		cols := 1 + rng.Intn(K)
		rects[i] = geom.Rect{
			W:       float64(cols) / float64(K),
			H:       0.1 + 0.9*rng.Float64(),
			Release: maxRelease * rng.Float64(),
		}
	}
	return geom.NewInstance(1, rects)
}

// contInstance generates continuous widths in [1/K, 1].
func contInstance(rng *rand.Rand, n, K int, maxRelease float64) *geom.Instance {
	rects := make([]geom.Rect, n)
	for i := range rects {
		lo := 1 / float64(K)
		rects[i] = geom.Rect{
			W:       lo + (1-lo)*rng.Float64(),
			H:       0.1 + 0.9*rng.Float64(),
			Release: maxRelease * rng.Float64(),
		}
	}
	return geom.NewInstance(1, rects)
}

// --- Lemma 3.1 ---

func TestRoundReleasesGrid(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 1, Release: 0},
		{W: 0.5, H: 1, Release: 0.34},
		{W: 0.5, H: 1, Release: 1.0},
	})
	out, delta, err := RoundReleases(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(delta-0.25) > 1e-12 {
		t.Fatalf("delta = %g, want 0.25", delta)
	}
	// Releases rounded up to the next multiple of 0.25.
	want := []float64{0.25, 0.5, 1.25}
	for i := range want {
		if math.Abs(out.Rects[i].Release-want[i]) > 1e-12 {
			t.Fatalf("release %d = %g, want %g", i, out.Rects[i].Release, want[i])
		}
	}
	// Count distinct values <= R+1.
	if got := len(DistinctReleases(out)) - 1; got > 5 {
		t.Fatalf("%d distinct releases after rounding with R=4", got)
	}
}

func TestRoundReleasesNoReleases(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}})
	out, delta, err := RoundReleases(in, 3)
	if err != nil || delta != 0 {
		t.Fatalf("err=%v delta=%g", err, delta)
	}
	if out.Rects[0].Release != 0 {
		t.Fatal("release changed on release-free instance")
	}
}

func TestRoundReleasesRejectsBadR(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}})
	if _, _, err := RoundReleases(in, 0); err == nil {
		t.Fatal("R=0 accepted")
	}
}

// TestRoundReleasesProperties: releases never decrease, the shift is at
// most δ, and the distinct count is at most R+1.
func TestRoundReleasesProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := contInstance(rng, 1+rng.Intn(20), 4, 5*rng.Float64())
		R := 1 + rng.Intn(6)
		out, delta, err := RoundReleases(in, R)
		if err != nil {
			return false
		}
		for i := range in.Rects {
			d := out.Rects[i].Release - in.Rects[i].Release
			if d < -geom.Eps || d > delta+geom.Eps {
				return false
			}
		}
		vals := DistinctReleases(out)
		// vals includes the artificial 0; the real values are <= R+1.
		return len(vals)-1 <= R+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// --- Lemma 3.2 ---

func TestStacking(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.3, H: 1}, {W: 0.9, H: 2}, {W: 0.5, H: 1},
	})
	order, base := Stacking(in, []int{0, 1, 2})
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("order = %v", order)
	}
	if base[0] != 0 || base[1] != 2 || base[2] != 3 {
		t.Fatalf("base = %v", base)
	}
	if h := StackHeight(in, []int{0, 1, 2}); h != 4 {
		t.Fatalf("StackHeight = %g", h)
	}
}

func TestGroupWidthsRoundsUp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := contInstance(rng, 30, 4, 2)
	out, err := GroupWidths(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Rects {
		if out.Rects[i].W < in.Rects[i].W-geom.Eps {
			t.Fatalf("width %d decreased: %g -> %g", i, in.Rects[i].W, out.Rects[i].W)
		}
		if out.Rects[i].H != in.Rects[i].H || out.Rects[i].Release != in.Rects[i].Release {
			t.Fatalf("height or release changed for %d", i)
		}
	}
}

// TestDistinctValuesRightSized: the distinct widths and releases of an
// n=5000 instance are 40 values each; every Model keeps both slices, so
// they must not pin the n-capacity sort buffer behind them.
func TestDistinctValuesRightSized(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(29))
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = geom.Rect{
			W:       float64(1+rng.Intn(40)) / 40,
			H:       0.5,
			Release: float64(rng.Intn(40)),
		}
	}
	in := geom.NewInstance(1, rects)
	ws, rs := DistinctWidths(in), DistinctReleases(in)
	if len(ws) > 40 || len(rs) > 41 {
		t.Fatalf("%d widths and %d releases, want at most 40 and 41", len(ws), len(rs))
	}
	if cap(ws) >= n/2 || cap(rs) >= n/2 {
		t.Fatalf("cap(widths) = %d, cap(releases) = %d: want both below %d", cap(ws), cap(rs), n/2)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatalf("widths not strictly ascending at %d: %v", i, ws)
		}
	}
	if rs[0] != 0 {
		t.Fatalf("releases start at %g, want 0", rs[0])
	}
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Fatalf("releases not strictly ascending at %d: %v", i, rs)
		}
	}
}

func TestGroupWidthsBoundsDistinctWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		in := contInstance(rng, 5+rng.Intn(40), 5, 1)
		groups := 1 + rng.Intn(4)
		// Force a single release class for a sharp per-class bound check.
		for i := range in.Rects {
			in.Rects[i].Release = 0.5
		}
		out, err := GroupWidths(in, groups)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(DistinctWidths(out)); got > groups {
			t.Fatalf("trial %d: %d distinct widths > %d groups", trial, got, groups)
		}
	}
}

func TestGroupWidthsRejectsBadGroups(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}})
	if _, err := GroupWidths(in, 0); err == nil {
		t.Fatal("groups=0 accepted")
	}
}

// TestGroupedContainsOriginal: P(R) is contained in P(R,W) in the stacking
// sense (the heart of Lemma 3.2 / Fig. 3).
func TestGroupedContainsOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		in := contInstance(rng, 4+rng.Intn(30), 4, 1)
		out, err := GroupWidths(in, 2+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		if !Contained(in, out) {
			t.Fatalf("trial %d: original not contained in grouped instance", trial)
		}
		if Contained(out, in) && !widthsEqual(in, out) {
			t.Fatalf("trial %d: grouped contained in original despite width growth", trial)
		}
	}
}

func widthsEqual(a, b *geom.Instance) bool {
	for i := range a.Rects {
		if math.Abs(a.Rects[i].W-b.Rects[i].W) > geom.Eps {
			return false
		}
	}
	return true
}

func TestCheckWidthBounds(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}})
	if err := CheckWidthBounds(in, 2); err != nil {
		t.Fatalf("valid: %v", err)
	}
	if err := CheckWidthBounds(in, 1); err == nil {
		t.Fatal("width below 1/K accepted")
	}
	tall := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 2}})
	if err := CheckWidthBounds(tall, 2); err == nil {
		t.Fatal("height > 1 accepted")
	}
	if err := CheckWidthBounds(in, 0); err == nil {
		t.Fatal("K=0 accepted")
	}
}

// --- configurations ---

func TestEnumerateConfigsSmall(t *testing.T) {
	// Widths 0.5 and 1.0 in a unit strip: {0.5}, {0.5,0.5}, {1.0}.
	cfgs, err := EnumerateConfigs([]float64{0.5, 1.0}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("got %d configs, want 3: %+v", len(cfgs), cfgs)
	}
	for _, c := range cfgs {
		if c.TotalWidth > 1+geom.Eps {
			t.Fatalf("config too wide: %+v", c)
		}
		if c.Items() == 0 {
			t.Fatal("empty config emitted")
		}
	}
}

func TestEnumerateConfigsCap(t *testing.T) {
	widths := []float64{0.1, 0.11, 0.12, 0.13}
	if _, err := EnumerateConfigs(widths, 1, 5); err == nil {
		t.Fatal("cap not enforced")
	}
}

func TestEnumerateConfigsValidation(t *testing.T) {
	if _, err := EnumerateConfigs([]float64{0.5, 0.2}, 1, 0); err == nil {
		t.Fatal("unsorted widths accepted")
	}
	if _, err := EnumerateConfigs([]float64{0}, 1, 0); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestCountConfigsMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		K := 2 + rng.Intn(3)
		widths := make([]float64, 0, K)
		for i := 1; i <= K; i++ {
			widths = append(widths, float64(i)/float64(K))
		}
		cfgs, err := EnumerateConfigs(widths, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := CountConfigs(widths, 1); got != len(cfgs) {
			t.Fatalf("CountConfigs = %d, enumeration = %d", got, len(cfgs))
		}
	}
}

// --- LP model ---

func TestBuildModelShapes(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 1, Release: 0},
		{W: 0.5, H: 0.5, Release: 2},
		{W: 1.0, H: 1, Release: 2},
	})
	m, err := BuildModel(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Widths) != 2 {
		t.Fatalf("widths = %v", m.Widths)
	}
	if len(m.Releases) != 2 || m.Releases[0] != 0 || m.Releases[1] != 2 {
		t.Fatalf("releases = %v", m.Releases)
	}
	// B[0] covers the release-0 rect, B[1] the two release-2 rects.
	if m.B[0][0] != 1 || m.B[1][0] != 0.5 || m.B[1][1] != 1 {
		t.Fatalf("B = %v", m.B)
	}
	if m.Problem.NumVars != len(m.Configs)*2 {
		t.Fatalf("vars = %d", m.Problem.NumVars)
	}
}

func TestSolveModelNoReleases(t *testing.T) {
	// Without releases the fractional optimum equals the area bound when
	// one configuration fills the whole strip: two width-1/2 rects of
	// height 1 -> OPTf = 1.
	in := geom.NewInstance(1, []geom.Rect{
		{W: 0.5, H: 1}, {W: 0.5, H: 1},
	})
	m, err := BuildModel(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := SolveModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fs.Height-1) > 1e-6 {
		t.Fatalf("OPTf = %g, want 1", fs.Height)
	}
}

func TestSolveModelRespectsPhaseCapacity(t *testing.T) {
	// One rect released at 10 forces height >= 10 + its height even though
	// the early phase is empty.
	in := geom.NewInstance(1, []geom.Rect{{W: 1, H: 1, Release: 10}})
	m, err := BuildModel(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := SolveModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fs.Height-11) > 1e-6 {
		t.Fatalf("OPTf = %g, want 11", fs.Height)
	}
}

func TestSolveModelExactMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		in := fpgaInstance(rng, 4+rng.Intn(6), 3, 2)
		m, err := BuildModel(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := SolveModel(m)
		if err != nil {
			t.Fatal(err)
		}
		m2, _ := BuildModel(in, 0)
		ee, err := solveModelExact(m2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ff.Height-ee.Height) > 1e-5 {
			t.Fatalf("trial %d: float %g vs exact %g", trial, ff.Height, ee.Height)
		}
	}
}

// TestFractionalIsLowerBound: OPTf <= height of any feasible integral
// packing (we use the greedy skyline baseline as the feasible witness).
func TestFractionalIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		in := fpgaInstance(rng, 3+rng.Intn(10), 3, 1.5)
		lb, err := FractionalLowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		p, err := GreedySkyline(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if lb > p.Height()+1e-6 {
			t.Fatalf("trial %d: fractional %g above integral %g", trial, lb, p.Height())
		}
		// The fractional optimum dominates the area and max-release bounds
		// (but NOT h_max or release+h: slices may be placed in parallel).
		if trivial := math.Max(in.AreaLowerBound(), in.MaxRelease()); lb < trivial-1e-6 {
			t.Fatalf("trial %d: fractional %g below trivial bound %g", trial, lb, trivial)
		}
	}
}

// --- integral conversion (Lemma 3.4) ---

func TestToIntegralProducesValidPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		in := fpgaInstance(rng, 3+rng.Intn(12), 4, 2)
		m, err := BuildModel(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := SolveModel(m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ToIntegral(in, fs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		// Lemma 3.4: height <= fractional + #occurrences (each occurrence
		// overflows by at most h_max <= 1).
		bound := fs.Height + float64(fs.Occurrences)*maxHeight(in) + 1e-6
		if p.Height() > bound {
			t.Fatalf("trial %d: height %g > Lemma 3.4 bound %g", trial, p.Height(), bound)
		}
	}
}

// --- Algorithm 2 end to end ---

func TestPackValidatesOptions(t *testing.T) {
	in := fpgaInstance(rand.New(rand.NewSource(1)), 4, 2, 1)
	if _, _, err := Pack(in, Options{Epsilon: 0, K: 2}); err == nil {
		t.Fatal("epsilon=0 accepted")
	}
	if _, _, err := Pack(in, Options{Epsilon: 1, K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	narrow := geom.NewInstance(1, []geom.Rect{{W: 0.1, H: 1}})
	if _, _, err := Pack(narrow, Options{Epsilon: 1, K: 2}); err == nil {
		t.Fatal("width below 1/K accepted")
	}
	empty := geom.NewInstance(1, nil)
	if _, _, err := Pack(empty, Options{Epsilon: 1, K: 2}); err == nil {
		t.Fatal("empty instance accepted")
	}
}

func TestPackEndToEndFPGA(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 15; trial++ {
		in := fpgaInstance(rng, 4+rng.Intn(10), 3, 2)
		p, rep, err := Pack(in, Options{Epsilon: 1.5, K: 3})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		// Theorem 3.5 shape: height <= (1+eps)*OPTf(P) + additive. We use
		// OPTf(P(R,W)) (= rep.FractionalHeight) which is itself at most
		// (1+eps)*OPTf(P).
		if p.Height() > rep.FractionalHeight+rep.AdditiveBound+1e-6 {
			t.Fatalf("trial %d: height %g > %g + %g", trial, p.Height(), rep.FractionalHeight, rep.AdditiveBound)
		}
		if rep.Occurrences > (rep.W+1)*(rep.R+1) {
			t.Fatalf("trial %d: %d occurrences exceed (W+1)(R+1)=%d", trial, rep.Occurrences, (rep.W+1)*(rep.R+1))
		}
		if rep.Configs == 0 || rep.LPVars == 0 {
			t.Fatalf("trial %d: report not populated: %+v", trial, rep)
		}
	}
}

func TestPackContinuousWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	in := contInstance(rng, 10, 2, 1)
	p, _, err := Pack(in, Options{Epsilon: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- baselines ---

func TestGreedyShelfValid(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		in := contInstance(rng, 1+rng.Intn(25), 4, 3*rng.Float64())
		p, err := GreedyShelf(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestGreedySkylineValidAndBeatsShelf(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	shelfWins := 0
	for trial := 0; trial < 40; trial++ {
		in := contInstance(rng, 5+rng.Intn(25), 4, 2*rng.Float64())
		ps, err := GreedyShelf(in)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := GreedySkyline(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := pk.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ps.Height() < pk.Height()-1e-9 {
			shelfWins++
		}
	}
	// The skyline baseline should rarely lose to the naive shelf.
	if shelfWins > 10 {
		t.Fatalf("shelf beat skyline on %d/40 instances", shelfWins)
	}
}
