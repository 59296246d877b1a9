// Command experiments regenerates the experiment tables E1..E15, the
// measurable counterparts of the paper's theorems, lemma constructions and
// figures; -list prints each table's ID and what it measures.
//
// Trials fan out on GOMAXPROCS goroutines; tables are byte-identical for
// every GOMAXPROCS, so the number of cores only trades wall-clock time.
//
// Usage:
//
//	experiments                  # run all of E1..E15
//	experiments E2 E4            # run a subset
//	GOMAXPROCS=1 experiments     # single-threaded (same output, slower)
//	experiments -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"strippack/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and titles")
	flag.Parse()
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
