package service

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/workload"
)

// fleetloadDigest streams n tasks into an in-process fleet exactly as
// `fleetload -n n -shards <Shards> -k <Columns> -seed <Seed>` does with the
// default load, burst, shrink and chunk settings, finishes it, and
// returns the hex sha256 of the shards' canonical snapshot encodings —
// the value fleetload prints on its `snapshots sha256` line.
func fleetloadDigest(t *testing.T, cfg fleet.Config, trace string, n int) string {
	t.Helper()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	load := 0.8 * float64(cfg.Shards)
	var stream *workload.Stream
	switch trace {
	case "churn":
		stream, err = workload.ChurnStream(rng, n, cfg.Columns, load, 0.3)
	case "burst":
		stream, err = workload.BurstStream(rng, n, cfg.Columns, load, 2.4*float64(cfg.Shards), 0.3, 200, 100)
	default:
		t.Fatalf("unknown trace %q", trace)
	}
	if err != nil {
		t.Fatal(err)
	}
	p := Local{Fleet: f}
	buf := make([]workload.ChurnTask, 1024)
	for base := 0; ; {
		m := stream.NextChunk(buf)
		if m == 0 {
			break
		}
		if _, err := p.Submit(0, fleet.Specs(buf[:m], base)); err != nil {
			t.Fatal(err)
		}
		base += m
	}
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < f.Shards(); i++ {
		snap, err := p.SnapshotShard(i)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(EncodeSnapshot(snap))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFleetDigestsPinned pins the final fleet state of small fleetload
// runs (8 shards x 16 columns, p2c, 20,000 tasks, no reconfiguration
// delay) across every completion policy, admission policy and trace
// shape. The digests were recorded before the online scheduler's horizon
// was reduced to a single run list, so they pin placements across that
// change — including the horizon's free path, which reclaim completions
// and sheds under none/reclaim exercise. Each value equals the
// `snapshots sha256` line of the matching fleetload command.
func TestFleetDigestsPinned(t *testing.T) {
	want := map[string]string{
		"none/unbounded/churn":    "ad8fac499a6e9eccbd8f914c8e2329f196f63a44f0efba77736322fec22eb2ea",
		"none/unbounded/burst":    "31e74439412bbf15754809f47d4a984233fc8217913a0acb59dda8d5a3c2a84f",
		"none/reject/churn":       "b77712c09c83ecba1d7f0fb306764078ce07c729a511969ada7c891ca27e1122",
		"none/reject/burst":       "8de505bc70c7fc3682f5c87930e93495d4115a2bfca9716a7609cfcb913333dd",
		"none/shed/churn":         "06cf9ca8d04425b7baad6a7ceed9130234c3dbcc2b62c37d35e050c29580ff2b",
		"none/shed/burst":         "6e542e52ec36c898269cfee9eb0441ca0dd0619f5d1ffc9b57773230d3b87fe0",
		"reclaim/unbounded/churn": "4d73e623eb9b7e9ad63f502ecb357b187bf94cfda0130d542e69127d0f93d707",
		"reclaim/unbounded/burst": "0aba5019935f2d563ef76d3d965288b952db98fff5f78da0a4f0877871d7a443",
		"reclaim/reject/churn":    "65ebd9ae6546dffef20961602ff9220fe503a4a380352a5ddd983d3d585c585f",
		"reclaim/reject/burst":    "3eeb2af82a7c7383758c8dab905a6ddedab7dd7f10e5610e1558d3ba21374ad9",
		"reclaim/shed/churn":      "e1313afc321c7310b071bffef347cfc0a2ebba3151ab16d553e1a37a68255a2f",
		"reclaim/shed/burst":      "283b5be5ac6b8a07cad55cf68482367a5531a2de9dd06abf92f54015050f680c",
		"compact/unbounded/churn": "31fcdbb2282d8c8fff955b1b3764719bc70739c22c5b66552e4773aee7580029",
		"compact/unbounded/burst": "496fca24ece9943e4577c148641064966e8d761e5a32bcd6041b05c3ece9bcc9",
		"compact/reject/churn":    "5b7fd9a5b75a537bd84eb6054cd7e91d9c791218bd878b9bfd9c5bf65e740aad",
		"compact/reject/burst":    "f04cde9e5b2b1f3bbcc4b53c4417e02194b4131a30dd7baa114774331c49ec65",
		"compact/shed/churn":      "ff4f5845f2f4442ad144d3528b27cb34598a0edfd2d5d74b3d5653ef19f28e70",
		"compact/shed/burst":      "146b7d2ef5625f9f0c36e27f798e8aa47a858bd439330fcee3dbc6f725b79e9e",
	}
	for _, policy := range []fpga.Policy{fpga.NoReclaim, fpga.Reclaim, fpga.ReclaimCompact} {
		for _, admission := range []fpga.AdmissionPolicy{fpga.AdmitAll, fpga.AdmitBounded, fpga.AdmitShed} {
			for _, trace := range []string{"churn", "burst"} {
				name := fmt.Sprintf("%v/%v/%s", policy, admission, trace)
				t.Run(name, func(t *testing.T) {
					ac := fpga.AdmissionConfig{Policy: admission}
					if admission != fpga.AdmitAll {
						ac.MaxBacklog = 16
					}
					cfg := fleet.Config{Shards: 8, Columns: 16, Policy: policy,
						Admission: ac, Route: fleet.RouteP2C, Seed: 1}
					got := fleetloadDigest(t, cfg, trace, 20_000)
					if got != want[name] {
						t.Errorf("snapshots sha256 %s, want %s", got, want[name])
					}
				})
			}
		}
	}
}
