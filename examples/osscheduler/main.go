// OS-style online task scheduling with release times: tasks arrive over
// time (Poisson spread) on a K-column reconfigurable device, the setting of
// Section 3 (operating systems for reconfigurable platforms, ref [23]).
// The APTAS (Algorithm 2) is compared with the greedy skyline baseline and
// the certified fractional lower bound.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"strippack"
	"strippack/internal/workload"
)

func main() {
	const K = 3
	const n = 24

	rng := rand.New(rand.NewSource(7))
	in := workload.FPGA(rng, n, K, 6.0) // releases spread over [0, 6]
	fmt.Printf("workload: %d tasks on %d columns, releases in [0, %.1f]\n\n",
		n, K, in.MaxRelease())

	optf, err := strippack.FractionalLowerBound(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fractional lower bound OPTf:  %.3f\n", optf)

	greedy, err := strippack.PackReleaseGreedy(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy skyline height:        %.3f (%.3fx OPTf)\n",
		greedy.Height(), greedy.Height()/optf)

	for _, eps := range []float64{3, 1.5, 0.75} {
		res, err := strippack.PackReleaseAPTAS(in, eps, K)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Packing.Validate(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("APTAS eps=%-5.2f height:       %.3f (%.3fx OPTf, additive term <= %.0f)\n",
			eps, res.Height, res.Height/optf, res.AdditiveBound)
	}

	fmt.Println("\nThe additive (W+1)(R+1) term dominates at this scale — the")
	fmt.Println("scheme is *asymptotic*: its advantage appears as total work grows")
	fmt.Println("while the additive term stays fixed (see cmd/experiments E6).")
}
