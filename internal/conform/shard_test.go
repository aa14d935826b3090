package conform

import (
	"testing"

	"hamband/internal/chaos"
)

// TestShardedConformance replays generated multi-shard fault plans through
// the per-shard checker: every shard's history must independently pass all
// five checks.
func TestShardedConformance(t *testing.T) {
	for _, class := range []string{"counter", "orset", "account"} {
		class := class
		t.Run(class, func(t *testing.T) {
			res, err := Run(chaos.GenerateSharded(class, 4, 120, 51, 4), chaos.Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(res.Reports) != 4 {
				t.Fatalf("checked %d shards, want 4: %v", len(res.Reports), res.Keys())
			}
			if !res.Conforms() {
				t.Fatalf("sharded history does not conform:\n%s", res)
			}
			for _, key := range res.Keys() {
				rep := res.Reports[key]
				if rep.Calls == 0 {
					t.Errorf("shard %s saw no calls — the split starved it", key)
				}
				if rep.Queries == 0 {
					t.Errorf("shard %s saw no queries — check 5 had no material", key)
				}
			}
		})
	}
}

// TestCrossWireMutationCaught is the harness's negative control: the store
// cross-wires two shards' broadcast apply loops (deliveries for one shard
// are injected into its pair), and the per-shard checker must flag the
// leakage. Globally unique tags guarantee a wired-in call can never
// masquerade as one of the victim shard's own issues.
func TestCrossWireMutationCaught(t *testing.T) {
	plan := chaos.Plan{
		Class: "orset", Nodes: 4, Ops: 120, Seed: 61,
		ShardMix:        2,
		CrossWireShards: true,
	}
	res, err := Run(plan, chaos.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Conforms() {
		t.Fatal("cross-wired apply loops conformed — the per-shard checker is blind to shard leakage")
	}
	caught := false
	for _, key := range res.Keys() {
		for _, v := range res.Reports[key].Violations {
			if v.Check == "identity" {
				caught = true
			}
		}
	}
	if !caught {
		t.Fatalf("no identity violation; leakage was flagged for the wrong reason:\n%s", res)
	}

	// The identical plan without the mutation conforms: the violations
	// above are caused by the cross-wiring, not by sharding itself.
	plan.CrossWireShards = false
	clean, err := Run(plan, chaos.Options{})
	if err != nil {
		t.Fatalf("Run (control): %v", err)
	}
	if !clean.Conforms() {
		t.Fatalf("un-mutated control does not conform:\n%s", clean)
	}
}
