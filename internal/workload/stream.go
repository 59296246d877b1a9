package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Stream draws a churn or burst trace one task at a time, in exactly the
// order (and with exactly the rng consumption) of the materializing Churn
// and Burst constructors — Churn(rng, ...) is now literally ChurnStream
// followed by a drain, so the two are identical by construction and the
// stream tests pin it. A million-task load run can therefore pipeline
// generation through a fixed-size chunk buffer instead of holding the
// whole trace in memory.
type Stream struct {
	rng     *rand.Rand
	n       int
	k       int
	maxCols int
	shrink  float64
	loadAt  func(i int) float64
	i       int
	t       float64
}

// ChurnStream is the streaming form of Churn: same parameters, same
// validation, and an identical task sequence for the same rng state.
func ChurnStream(rng *rand.Rand, n, K int, load, shrink float64) (*Stream, error) {
	if err := checkChurnParams(n, K, load, shrink); err != nil {
		return nil, err
	}
	return newStream(rng, n, K, shrink, func(int) float64 { return load }), nil
}

// BurstStream is the streaming form of Burst: same parameters, same
// validation, and an identical task sequence for the same rng state.
func BurstStream(rng *rand.Rand, n, K int, baseLoad, burstLoad, shrink float64, period, duty int) (*Stream, error) {
	if err := checkChurnParams(n, K, baseLoad, shrink); err != nil {
		return nil, err
	}
	if math.IsNaN(burstLoad) || math.IsInf(burstLoad, 0) || burstLoad <= 0 {
		return nil, fmt.Errorf("workload: burst load must be positive and finite, got %g", burstLoad)
	}
	if period < 1 || duty < 0 || duty > period {
		return nil, fmt.Errorf("workload: burst needs period >= 1 and duty in [0, period], got period=%d duty=%d", period, duty)
	}
	return newStream(rng, n, K, shrink, func(i int) float64 {
		if i%period < duty {
			return burstLoad
		}
		return baseLoad
	}), nil
}

func newStream(rng *rand.Rand, n, K int, shrink float64, loadAt func(i int) float64) *Stream {
	maxCols := K / 2
	if maxCols < 1 {
		maxCols = 1
	}
	return &Stream{rng: rng, n: n, k: K, maxCols: maxCols, shrink: shrink, loadAt: loadAt}
}

// Next draws the next task of the trace; ok is false once all n tasks
// have been drawn.
func (s *Stream) Next() (ct ChurnTask, ok bool) {
	if s.i >= s.n {
		return ChurnTask{}, false
	}
	if s.i > 0 {
		s.t += s.rng.ExpFloat64() * churnInterarrival(s.k, s.maxCols, s.loadAt(s.i))
	}
	dur := 0.5 + s.rng.Float64()
	ct = ChurnTask{
		Cols:     1 + s.rng.Intn(s.maxCols),
		Release:  s.t,
		Duration: dur,
		Lifetime: dur * (s.shrink + (1-s.shrink)*s.rng.Float64()),
	}
	s.i++
	return ct, true
}

// NextChunk fills dst with up to len(dst) tasks and returns how many were
// drawn — 0 once the stream is exhausted. Releases are nondecreasing
// across the whole stream, so consecutive chunks are consecutive windows
// of the same trace.
func (s *Stream) NextChunk(dst []ChurnTask) int {
	for i := range dst {
		ct, ok := s.Next()
		if !ok {
			return i
		}
		dst[i] = ct
	}
	return len(dst)
}
