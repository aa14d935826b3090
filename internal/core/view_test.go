package core

import (
	"strings"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// TestSummaryViewsMatchRebuild drives every event that folds into or
// rebuilds the summary views — local REDUCE, δ-record folds, free and
// ordered applies, leader speculation (fold paths); anchor adoption (every
// write, in full-state mode), a fetched slot after a torn park, and the
// leader's deposition (rebuild paths) — with CheckIntegrity on, which compares each
// folded view against a from-scratch Apply(S)(σ) after every state change
// and panics on drift.
func TestSummaryViewsMatchRebuild(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cls   func() *spec.Class
		delta bool
	}{
		{"projectmgmt/delta", schema.NewProjectManagement, true},
		{"projectmgmt/full", schema.NewProjectManagement, false},
		{"account/delta", crdt.NewAccount, true},
		{"account/full", crdt.NewAccount, false},
		{"bankmap/delta", crdt.NewBankMap, true}, // irreducible conflict-free calls: invokeFree
	} {
		t.Run(tc.name, func(t *testing.T) {
			cls := tc.cls()
			h := newHarness(t, cls, 3, 41, func(o *Options) {
				o.AnchorInterval = 4
				if !tc.delta {
					o.DeltaLogBytes = 0
				}
			})
			if !h.cluster.Opts.CheckIntegrity {
				t.Fatal("the drift check runs under CheckIntegrity")
			}
			// p0 leads every synchronization group; count the times it is
			// deposed while holding a speculative view, which must go.
			r0 := h.cluster.Replica(0)
			deposed := 0
			for _, in := range r0.groups {
				prev := in.OnLeaderChange
				in.OnLeaderChange = func(leader rdma.NodeID, term uint64) {
					held := leader != 0 && r0.specQ != nil
					prev(leader, term)
					if held {
						deposed++
						if r0.sigmaSpec != nil || r0.specQ != nil {
							t.Error("the deposed leader kept its speculative views")
						}
					}
				}
			}
			updates := cls.UpdateMethods()
			burst := func(at sim.Duration, n int, procs ...spec.ProcID) {
				h.eng.At(sim.Time(at), func() {
					for i := 0; i < n; i++ {
						u := updates[h.rng.Intn(len(updates))]
						c := cls.Gen.Call(h.rng, u)
						h.invoke(procs[h.rng.Intn(len(procs))], u, c.Args)
					}
				})
			}
			burst(0, 30, 0, 1, 2)
			burst(2*sim.Millisecond, 30, 0, 1, 2)
			// Briefly every write from p1 to p2 lands torn, its interior
			// 300µs late, while p1 issues reducible calls only (a torn ring
			// record parks until recovery): p2's scan of p1's slot parks
			// until it fetches p1's own copy.
			h.eng.At(sim.Time(4*sim.Millisecond), func() {
				h.fab.SetLinkTorn(1, 2, 300*sim.Microsecond, 0)
				u := cls.SumGroups[0].Methods[0]
				for i := 0; i < 5; i++ {
					h.invoke(1, u, cls.Gen.Call(h.rng, u).Args)
				}
			})
			h.eng.At(sim.Time(4*sim.Millisecond+100*sim.Microsecond), func() { h.fab.SetLinkTorn(1, 2, 0, 0) })
			// Silence the leader's heartbeat: p1 takes over, and p0, still
			// running, adopts it and discards its speculation.
			h.eng.At(sim.Time(6*sim.Millisecond), func() {
				r0.Beater().Suspend()
				// A guarded conflicting call makes p0 build its speculative
				// view just before it is deposed.
				for i := 0; i < 100; i++ {
					u := updates[h.rng.Intn(len(updates))]
					c := cls.Gen.Call(h.rng, u)
					if h.cluster.An.Category[u] == spec.CatConflicting && !cls.InvariantSufficient(c) {
						h.invoke(0, u, c.Args)
						break
					}
				}
			})
			burst(8*sim.Millisecond, 30, 0, 1, 2)
			h.eng.At(sim.Time(12*sim.Millisecond), func() { r0.Beater().Resume() })
			burst(16*sim.Millisecond, 30, 0, 1, 2)
			h.eng.RunUntil(sim.Time(17 * sim.Millisecond))
			if !h.drain(200 * sim.Millisecond) {
				t.Fatal("replication did not complete")
			}
			h.checkConvergence()

			if deposed == 0 {
				t.Error("the leader was never deposed holding a speculative view")
			}
			for _, r := range h.cluster.Replicas {
				if r.sigmaQ == nil {
					t.Errorf("p%d never materialized Apply(S)(σ)", r.id)
				}
			}
			deltas, anchors, fetches := deltaStats(h.cluster)
			if tc.delta && (deltas == 0 || anchors < 3 || fetches == 0) {
				t.Errorf("delta pipeline: %d δ-records, %d anchors, %d fetches; want all three paths", deltas, anchors, fetches)
			}
			if !tc.delta && (deltas != 0 || fetches == 0) {
				t.Errorf("full-state pipeline: %d δ-records, %d fetches; want none and a torn-park fetch", deltas, fetches)
			}
		})
	}
}

// TestViewDriftCaught is the drift check's own negative control: a call
// folded into the view but never applied to σ must be reported.
func TestViewDriftCaught(t *testing.T) {
	h := newHarness(t, crdt.NewAccount(), 2, 42, nil)
	h.eng.At(0, func() { h.invoke(0, crdt.AccountDeposit, spec.ArgsI(5)) })
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("deposit did not replicate")
	}
	r := h.cluster.Replica(1)
	r.assertIntegrity("clean") // must not panic
	r.cls.ApplyCall(r.queryState(), spec.Call{Method: crdt.AccountDeposit, Args: spec.ArgsI(1)})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "drifted") {
			t.Fatalf("drifted view not reported (recovered %q)", msg)
		}
	}()
	r.assertIntegrity("tampered")
}
