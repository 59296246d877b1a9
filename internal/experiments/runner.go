package experiments

import (
	"math/rand"

	"strippack/internal/par"
)

// Trial identifies one unit of work in an experiment's grid: the Row it
// contributes a measurement to, the repetition number within that row, and
// its global Index in row-major order. Seed is the per-trial RNG seed,
// baseSeed ^ Index, so every trial draws from an independent, reproducible
// stream no matter which goroutine runs it.
type Trial struct {
	Row   int
	Rep   int
	Index int
	Seed  int64
}

// RunGrid executes a rows x reps trial grid with par.For and returns the
// results grouped by row, reps in order. Every trial runs, even after one
// fails; the error returned is the lowest-index trial's.
//
// Determinism contract: for a fixed baseSeed the output — including which
// error is reported when several trials fail — is byte-for-byte independent
// of GOMAXPROCS. Each trial gets a private *rand.Rand seeded
// baseSeed ^ trialIndex, and results land in a slot preallocated for their
// index.
func RunGrid[T any](rows, reps int, baseSeed int64, fn func(t Trial, rng *rand.Rand) (T, error)) ([][]T, error) {
	results := make([]T, rows*reps)
	err := par.For(rows*reps, func(_, i int) error {
		t := Trial{Row: i / reps, Rep: i % reps, Index: i, Seed: baseSeed ^ int64(i)}
		var err error
		results[i], err = fn(t, rand.New(rand.NewSource(t.Seed)))
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, rows)
	for r := 0; r < rows; r++ {
		out[r] = results[r*reps : (r+1)*reps]
	}
	return out, nil
}
