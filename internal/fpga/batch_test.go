package fpga

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// SubmitWithLifetime is Submit with a registered lifetime: the sequential,
// one-task form of a TaskSpec with Actual set. SubmitBatch is checked
// against it, and the fpga tests drive churn through it; production
// registers lifetimes through SubmitBatch and RunChurnAdmission. Like
// Submit, it returns an admission refusal as an *admissionError.
func (o *OnlineScheduler) SubmitWithLifetime(id int, name string, cols int, duration, actual, release float64) (Task, error) {
	t, err := o.submitLifetime(id, name, cols, duration, actual, release)
	return t, o.refusal(id, err)
}

// randSpecs draws a batch of specs: clustered releases (so batches hold
// tied floors), occasional duplicate IDs and invalid geometry (so
// the error paths are compared too), and a mix of plain and lifetime
// submissions.
func randSpecs(rng *rand.Rand, n, K, idBase int, relBase float64) []TaskSpec {
	specs := make([]TaskSpec, n)
	rel := relBase
	for i := range specs {
		if rng.Intn(3) == 0 {
			rel += rng.Float64() // distinct release
		}
		id := idBase + i
		if rng.Intn(20) == 0 && i > 0 {
			id = idBase + rng.Intn(i) // duplicate of an earlier spec
		}
		sp := TaskSpec{
			ID:       id,
			Cols:     1 + rng.Intn(K),
			Duration: 0.2 + rng.Float64(),
			Release:  rel,
		}
		if rng.Intn(2) == 0 {
			sp.Actual = sp.Duration * (0.3 + 0.7*rng.Float64())
		}
		specs[i] = sp
	}
	return specs
}

// submitSeq is the reference loop SubmitBatch must match: specs in
// (release, index) order through the sequential Submit path, skipping
// admission refusals, stopping at the first hard error.
func submitSeq(o *OnlineScheduler, specs []TaskSpec) ([]Task, error) {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort: stable, test-only
		for j := i; j > 0 && specs[order[j]].Release < specs[order[j-1]].Release; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var placed []Task
	for _, oi := range order {
		sp := specs[oi]
		var t Task
		var err error
		if sp.Actual != 0 {
			t, err = o.SubmitWithLifetime(sp.ID, sp.Name, sp.Cols, sp.Duration, sp.Actual, sp.Release)
		} else {
			t, err = o.Submit(sp.ID, sp.Name, sp.Cols, sp.Duration, sp.Release)
		}
		if err != nil {
			if errors.Is(err, ErrRejected) {
				continue
			}
			return placed, err
		}
		placed = append(placed, t)
	}
	return placed, nil
}

func snapJSON(t *testing.T, o *OnlineScheduler) []byte {
	t.Helper()
	blob, err := json.Marshal(o.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSubmitBatchEquivalence is the bit-identical contract: across every
// policy x admission combination, interleaving batches with completions
// must leave a scheduler byte-identical (per canonical Snapshot) to the
// sequential Submit loop, with identical returned tasks and identical
// errors — including trials where admission rejects or sheds.
func TestSubmitBatchEquivalence(t *testing.T) {
	admissions := []AdmissionConfig{
		{},
		{Policy: AdmitBounded, MaxBacklog: 3},
		{Policy: AdmitShed, MaxBacklog: 3},
	}
	for _, policy := range []Policy{NoReclaim, Reclaim, ReclaimCompact} {
		for _, ac := range admissions {
			for trial := 0; trial < 40; trial++ {
				rng := rand.New(rand.NewSource(int64(trial) ^ int64(policy)<<8 ^ int64(ac.Policy)<<16))
				K := 2 + rng.Intn(14)
				d := &Device{Columns: K, ReconfigDelay: float64(rng.Intn(2)) * 0.05}
				batched, err := NewOnlineSchedulerAdmission(d, policy, ac)
				if err != nil {
					t.Fatal(err)
				}
				seq, err := NewOnlineSchedulerAdmission(d, policy, ac)
				if err != nil {
					t.Fatal(err)
				}
				idBase, rel := 0, 0.0
				for round := 0; round < 4; round++ {
					specs := randSpecs(rng, 5+rng.Intn(60), K, idBase, rel)
					idBase += len(specs)
					rel = specs[len(specs)-1].Release
					gotTasks, gotErr := batched.SubmitBatch(nil, specs)
					wantTasks, wantErr := submitSeq(seq, specs)
					if (gotErr == nil) != (wantErr == nil) ||
						(gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("policy=%v admission=%v trial=%d round=%d: batch err %v, sequential err %v",
							policy, ac.Policy, trial, round, gotErr, wantErr)
					}
					if len(gotTasks) != len(wantTasks) {
						t.Fatalf("policy=%v admission=%v trial=%d round=%d: %d placed vs %d sequential",
							policy, ac.Policy, trial, round, len(gotTasks), len(wantTasks))
					}
					for i := range gotTasks {
						if gotTasks[i] != wantTasks[i] {
							t.Fatalf("policy=%v admission=%v trial=%d round=%d: task %d = %+v vs %+v",
								policy, ac.Policy, trial, round, i, gotTasks[i], wantTasks[i])
						}
					}
					if a, b := snapJSON(t, batched), snapJSON(t, seq); string(a) != string(b) {
						t.Fatalf("policy=%v admission=%v trial=%d round=%d: snapshots diverge\nbatch: %s\nseq:   %s",
							policy, ac.Policy, trial, round, a, b)
					}
					// Interleave a manual completion so later rounds run over
					// a reclaimed (non-monotone) horizon.
					if len(gotTasks) > 0 && rng.Intn(2) == 0 {
						ct := gotTasks[rng.Intn(len(gotTasks))]
						if _, idx := batched.tasks.probe(ct.ID); batched.tasks.at(idx).flags&flagDone == 0 && ct.Start+0.01 > batched.now {
							at := ct.Start + 0.6*ct.Duration
							errB := batched.Complete(ct.ID, at)
							errS := seq.Complete(ct.ID, at)
							if (errB == nil) != (errS == nil) {
								t.Fatalf("trial=%d round=%d: Complete diverged: %v vs %v", trial, round, errB, errS)
							}
						}
					}
				}
				if err := batched.Drain(); err != nil {
					t.Fatal(err)
				}
				if err := seq.Drain(); err != nil {
					t.Fatal(err)
				}
				if a, b := snapJSON(t, batched), snapJSON(t, seq); string(a) != string(b) {
					t.Fatalf("policy=%v admission=%v trial=%d: post-drain snapshots diverge", policy, ac.Policy, trial)
				}
			}
		}
	}
}

// TestSubmitBatchValidation pins the batch-only error paths: empty batch,
// non-finite releases (rejected before sorting, by input index), and hard
// errors aborting mid-batch with earlier placements kept.
func TestSubmitBatchValidation(t *testing.T) {
	o := NewOnlineScheduler(NewDevice(4))
	if tasks, err := o.SubmitBatch(nil, nil); err != nil || tasks != nil {
		t.Fatalf("empty batch: %v, %v", tasks, err)
	}
	_, err := o.SubmitBatch(nil, []TaskSpec{
		{ID: 0, Cols: 1, Duration: 1},
		{ID: 1, Cols: 1, Duration: 1, Release: math.NaN()},
	})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN release: %v", err)
	}
	if o.tasks.n != 0 {
		t.Fatalf("NaN release placed %d tasks before erroring", o.tasks.n)
	}
	placed, err := o.SubmitBatch(nil, []TaskSpec{
		{ID: 0, Cols: 1, Duration: 1},
		{ID: 0, Cols: 1, Duration: 1}, // duplicate: hard error mid-batch
		{ID: 2, Cols: 1, Duration: 1},
	})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate ID: %v", err)
	}
	if len(placed) != 1 || placed[0].ID != 0 {
		t.Fatalf("placements before the hard error: %+v", placed)
	}
	// A lifetime-carrying spec must behave exactly like SubmitWithLifetime.
	if _, err := o.SubmitBatch(nil, []TaskSpec{{ID: 9, Cols: 1, Duration: 1, Actual: 2}}); !errors.Is(err, ErrInvalidTask) {
		t.Fatalf("oversized lifetime: %v", err)
	}
}

// TestShedIDsCopy is the regression test for Snapshot sharing the
// scheduler's eviction history: mutating a snapshot's ShedIDs must leave
// the next snapshot and the record encoder's bytes unchanged.
func TestShedIDsCopy(t *testing.T) {
	o, err := NewOnlineSchedulerAdmission(NewDevice(2), NoReclaim,
		AdmissionConfig{Policy: AdmitShed, MaxBacklog: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if _, err := o.Submit(id, "", 2, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := o.AppendSnapshot(nil)
	got := o.Snapshot().ShedIDs
	if len(got) == 0 {
		t.Fatal("expected sheds under a full backlog")
	}
	want := slices.Clone(got)
	for i := range got {
		got[i] = -1
	}
	if again := o.Snapshot().ShedIDs; !slices.Equal(again, want) {
		t.Fatalf("shed history corrupted by a snapshot's caller: %v vs %v", again, want)
	}
	if b := o.AppendSnapshot(nil); !bytes.Equal(b, wantBytes) {
		t.Fatal("snapshot bytes changed by a snapshot's caller")
	}
}

// FuzzSubmitBatch drives the batch path against the sequential reference
// with fuzzer-chosen geometry, releases, lifetimes and admission config,
// asserting byte-identical snapshots after every batch.
func FuzzSubmitBatch(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(7), uint8(3), uint8(0), uint8(2), []byte{250, 0, 9, 9, 30, 1})
	f.Fuzz(func(t *testing.T, seed int64, kRaw, policyRaw, admitRaw uint8, data []byte) {
		K := 1 + int(kRaw%16)
		policy := Policy(int(policyRaw) % 3)
		ac := AdmissionConfig{}
		if admitRaw%3 != 0 {
			ac = AdmissionConfig{Policy: AdmissionPolicy(1 + admitRaw%2), MaxBacklog: 1 + int(admitRaw/3)%4}
		}
		d := NewDevice(K)
		batched, err := NewOnlineSchedulerAdmission(d, policy, ac)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewOnlineSchedulerAdmission(d, policy, ac)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var specs []TaskSpec
		rel, id := 0.0, 0
		flush := func() {
			if len(specs) == 0 {
				return
			}
			gotErr := error(nil)
			if _, gotErr = batched.SubmitBatch(nil, specs); gotErr != nil && !errors.Is(gotErr, ErrRejected) {
				// Hard errors must match the sequential loop too.
			}
			_, wantErr := submitSeq(seq, specs)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("batch err %v, sequential err %v", gotErr, wantErr)
			}
			a, _ := json.Marshal(batched.Snapshot())
			b, _ := json.Marshal(seq.Snapshot())
			if string(a) != string(b) {
				t.Fatalf("snapshots diverge after batch of %d\nbatch: %s\nseq:   %s", len(specs), a, b)
			}
			specs = specs[:0]
		}
		for _, b := range data {
			switch b % 4 {
			case 0, 1: // queue a spec
				sp := TaskSpec{
					ID:       id,
					Cols:     1 + int(b/4)%K,
					Duration: 0.1 + float64(b%7)/4,
					Release:  rel,
				}
				if b%8 >= 4 {
					sp.Actual = sp.Duration * (0.25 + 0.7*rng.Float64())
				}
				id++
				specs = append(specs, sp)
			case 2: // advance the release clock
				rel += float64(b%16) / 8
			case 3: // flush the pending batch
				flush()
			}
		}
		flush()
		if err := batched.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := seq.Drain(); err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(batched.Snapshot())
		b, _ := json.Marshal(seq.Snapshot())
		if string(a) != string(b) {
			t.Fatalf("post-drain snapshots diverge")
		}
	})
}
