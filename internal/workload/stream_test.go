package workload

import (
	"math/rand"
	"testing"
)

// TestChurnStreamMatchesChurn pins the identical-trace contract: for the
// same seed and parameters, draining ChurnStream (task by task, and in
// ragged chunks) reproduces Churn's slice exactly.
func TestChurnStreamMatchesChurn(t *testing.T) {
	want, err := Churn(rand.New(rand.NewSource(41)), 5000, 32, 0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ChurnStream(rand.New(rand.NewSource(41)), 5000, 32, 0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("stream exhausted at %d of %d", i, len(want))
		}
		if got != w {
			t.Fatalf("task %d: stream %+v, slice %+v", i, got, w)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream kept producing past n")
	}

	// Ragged chunk sizes must walk the same trace.
	s2, err := ChurnStream(rand.New(rand.NewSource(41)), 5000, 32, 0.8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var got []ChurnTask
	for _, sz := range []int{1, 7, 64, 1000, 8192} {
		buf := make([]ChurnTask, sz)
		got = append(got, buf[:s2.NextChunk(buf)]...)
	}
	if len(got) != len(want) {
		t.Fatalf("chunked drain produced %d tasks, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chunked task %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestBurstStreamMatchesBurst is the same contract for the bursty trace.
func TestBurstStreamMatchesBurst(t *testing.T) {
	want, err := Burst(rand.New(rand.NewSource(43)), 3000, 16, 0.4, 1.2, 0.3, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BurstStream(rand.New(rand.NewSource(43)), 3000, 16, 0.4, 1.2, 0.3, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]ChurnTask, len(want))
	if n := s.NextChunk(got); n != len(want) {
		t.Fatalf("stream drew %d tasks, want %d", n, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("task %d: stream %+v, slice %+v", i, got[i], want[i])
		}
	}
}

// TestStreamValidation: the streaming constructors reject bad parameters
// exactly like the materializing ones.
func TestStreamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := ChurnStream(rng, 0, 8, 0.5, 0.3); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ChurnStream(rng, 10, 8, -1, 0.3); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := BurstStream(rng, 10, 8, 0.4, 0, 0.3, 10, 5); err == nil {
		t.Fatal("zero burst load accepted")
	}
	if _, err := BurstStream(rng, 10, 8, 0.4, 1.2, 0.3, 10, 11); err == nil {
		t.Fatal("duty > period accepted")
	}
}
