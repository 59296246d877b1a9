package strippack

import (
	"math"
	"math/rand"
	"testing"

	"strippack/internal/core/precedence"
	"strippack/internal/dag"
	"strippack/internal/workload"
)

func TestPackDCFacade(t *testing.T) {
	in := New(1, []Rect{
		{Name: "a", W: 0.5, H: 1},
		{Name: "b", W: 0.5, H: 1},
		{Name: "c", W: 1.0, H: 0.5},
	})
	in.AddEdge(0, 2)
	in.AddEdge(1, 2)
	res, err := PackDC(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Packing.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Height-1.5) > 1e-9 {
		t.Fatalf("height = %g, want 1.5", res.Height)
	}
	if res.LowerBound <= 0 || res.Guarantee < res.Height-1e-9 || res.Calls < 1 {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

// TestPackDCBoundsMatchOracles: PackDC derives its two bounds from the
// F(S) its DC run reports instead of rebuilding the DAG. They must equal,
// bit for bit, LowerBoundPrecedence and Theorem 2.3's bound computed from
// a separate FValues pass, whatever DC's worker count.
func TestPackDCBoundsMatchOracles(t *testing.T) {
	defer func(w int) { precedence.DefaultWorkers = w }(precedence.DefaultWorkers)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		in := workload.DAGWorkload(rng, 200+rng.Intn(600), 2+rng.Intn(30), 0.2*rng.Float64())
		lb, err := LowerBoundPrecedence(in)
		if err != nil {
			t.Fatal(err)
		}
		f, err := precedence.FValues(in)
		if err != nil {
			t.Fatal(err)
		}
		guarantee := math.Log2(float64(in.N())+1)*dag.MaxF(f) + 2*in.AreaLowerBound()
		for _, w := range []int{1, 8} {
			precedence.DefaultWorkers = w
			res, err := PackDC(in)
			if err != nil {
				t.Fatal(err)
			}
			if res.LowerBound != lb || res.Guarantee != guarantee {
				t.Fatalf("trial %d workers %d: bounds %v, %v; oracles %v, %v",
					trial, w, res.LowerBound, res.Guarantee, lb, guarantee)
			}
		}
	}
}

func TestPackUniformFacades(t *testing.T) {
	in := New(1, []Rect{
		{W: 0.6, H: 1}, {W: 0.6, H: 1}, {W: 0.4, H: 1},
	})
	in.AddEdge(0, 2)
	nf, err := PackUniformNextFit(in)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := PackUniformFirstFit(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*UniformResult{nf, ff} {
		if err := r.Packing.Validate(); err != nil {
			t.Fatal(err)
		}
		if r.Shelves < 2 {
			t.Fatalf("shelves = %d", r.Shelves)
		}
	}
	if ff.Height > nf.Height+1e-9 {
		t.Fatalf("first-fit (%g) worse than next-fit (%g)", ff.Height, nf.Height)
	}
}

func TestPackReleaseAPTASFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := workload.FPGA(rng, 8, 3, 1.5)
	res, err := PackReleaseAPTAS(in, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Packing.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Height > res.FractionalHeight+res.AdditiveBound+1e-6 {
		t.Fatalf("height %g exceeds theorem bound", res.Height)
	}
	if res.R < 1 || res.W < res.R {
		t.Fatalf("parameters: %+v", res)
	}
}

func TestPackReleaseGreedyFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := workload.FPGA(rng, 20, 4, 2)
	p, err := PackReleaseGreedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlainPackersFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := workload.Uniform(rng, 25, 0.05, 0.7, 0.1, 1)
	for name, f := range map[string]func(*Instance) (*Packing, error){
		"nfdh": PackNFDH, "ffdh": PackFFDH, "bl": PackBottomLeft, "sleator": PackSleator,
	} {
		p, err := f(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestLowerBoundsFacade(t *testing.T) {
	in := New(1, []Rect{{W: 1, H: 2}})
	lb, err := LowerBoundPrecedence(in)
	if err != nil || math.Abs(lb-2) > 1e-9 {
		t.Fatalf("lb=%g err=%v", lb, err)
	}
	flb, err := FractionalLowerBound(in)
	if err != nil || flb < 2-1e-6 {
		t.Fatalf("flb=%g err=%v", flb, err)
	}
}

func TestSolveExactFacade(t *testing.T) {
	in := New(1, []Rect{{W: 0.5, H: 1}, {W: 0.5, H: 1}})
	res, err := SolveExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || math.Abs(res.Height-1) > 1e-9 {
		t.Fatalf("exact: %+v", res)
	}
}

func TestFPGAFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	raw := workload.Uniform(rng, 12, 0.05, 0.8, 0.1, 1)
	K := 6
	in, err := QuantizeToColumns(raw, K)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PackNFDH(in)
	if err != nil {
		t.Fatal(err)
	}
	st, err := SimulateOnFPGA(p, K)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Makespan-p.Height()) > 1e-9 {
		t.Fatalf("makespan %g != height %g", st.Makespan, p.Height())
	}
	if st.Reconfigurations != in.N() {
		t.Fatalf("reconfigs = %d, want %d", st.Reconfigurations, in.N())
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("utilization = %g", st.Utilization)
	}
}
