// Command experiments regenerates the experiment tables E1..E15, the
// measurable counterparts of the paper's theorems, lemma constructions and
// figures; -list prints each table's ID and what it measures.
//
// Trials fan out across a worker pool; tables are byte-identical for every
// -parallel value, so the flag only trades wall-clock time for cores.
//
// Usage:
//
//	experiments             # run all of E1..E15 on GOMAXPROCS workers
//	experiments E2 E4       # run a subset
//	experiments -parallel 1 # single-threaded (same output, slower)
//	experiments -list       # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"strippack/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and titles")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool width for trial fan-out (>=1; results are identical for any value)")
	dcWorkers := flag.Int("dc-workers", 0,
		"worker count for the DC divide-and-conquer recursion (0 = GOMAXPROCS; results are identical for any value)")
	cgWorkers := flag.Int("cg-workers", 0,
		"pricing worker count for the configuration-LP column generation (0 = GOMAXPROCS; results are identical for any value)")
	churnWorkers := flag.Int("churn-workers", 0,
		"fan-out for E13's per-trial policy simulations (0 = one per policy; results are identical for any value)")
	admissionWorkers := flag.Int("admission", 0,
		"fan-out for E14's per-trial admission-policy simulations (0 = one per policy; results are identical for any value)")
	fleetWorkers := flag.Int("fleet-workers", 0,
		"per-shard execution fan-out for E15's fleet router (0 = GOMAXPROCS; results are identical for any value)")
	cgPool := flag.Bool("cg-pool", true,
		"warm-start configuration-LP solves from the cross-solve column pool (tables are identical either way)")
	statsOut := flag.Bool("stats", false,
		"print a cache+pool summary line after each CG-backed table (diagnostic; excluded from determinism diffs)")
	flag.Parse()
	if *parallel < 1 {
		fmt.Fprintln(os.Stderr, "experiments: -parallel must be >= 1")
		os.Exit(2)
	}
	if *dcWorkers < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -dc-workers must be >= 0")
		os.Exit(2)
	}
	if *cgWorkers < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -cg-workers must be >= 0")
		os.Exit(2)
	}
	if *churnWorkers < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -churn-workers must be >= 0")
		os.Exit(2)
	}
	if *admissionWorkers < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -admission must be >= 0")
		os.Exit(2)
	}
	if *fleetWorkers < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -fleet-workers must be >= 0")
		os.Exit(2)
	}
	experiments.Parallelism = *parallel
	experiments.DCWorkers = *dcWorkers
	experiments.CGWorkers = *cgWorkers
	experiments.ChurnWorkers = *churnWorkers
	experiments.AdmissionWorkers = *admissionWorkers
	experiments.FleetWorkers = *fleetWorkers
	experiments.CGPool = *cgPool
	experiments.StatsEnabled = *statsOut
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		if err := experiments.RunAll(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	for _, id := range ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
