package core

import (
	"testing"

	"hamband/internal/broadcast"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// TestReplicaShapeFollowsCategories builds every crdt and schema class and
// checks that a replica holds only the machinery its method categories use:
// a broadcaster, a receiver and inbound ring regions iff the class has an
// irreducible conflict-free method, and the apply pump's retry ticker iff it
// has a free or a conflicting method (only F and L buffers block on
// dependencies). The broadcasting set is pinned by name so an analysis
// change that moves a class in or out of it shows up here.
func TestReplicaShapeFollowsCategories(t *testing.T) {
	broadcasting := map[string]bool{
		"bankmap": true, "cart": true, "gset-buffered": true,
		"mvregister": true, "orset": true, "rga": true,
	}
	classes := []*spec.Class{
		crdt.NewAccount(), crdt.NewBankMap(), crdt.NewCart(), crdt.NewCounter(),
		crdt.NewGSet(), crdt.NewGSetBuffered(), crdt.NewLWW(), crdt.NewLWWMap(),
		crdt.NewMVRegister(3), crdt.NewORSet(), crdt.NewPNCounter(), crdt.NewRGA(),
		crdt.NewTwoPSet(),
		schema.NewAuction(), schema.NewCourseware(), schema.NewMovie(),
		schema.NewProjectManagement(), schema.NewTournament(),
	}
	const n = 3
	for _, cls := range classes {
		an := spec.MustAnalyze(cls)
		free := an.Has(spec.CatIrreducibleFree)
		buffered := free || an.Has(spec.CatConflicting)
		if free != broadcasting[cls.Name] {
			t.Errorf("%s: analysis has irreducible conflict-free methods = %v, pinned %v", cls.Name, free, broadcasting[cls.Name])
		}

		fab := rdma.NewFabric(sim.NewEngine(1), n, rdma.DefaultLatency())
		opts := DefaultOptions()
		opts.Namespace = "shape/"
		c := NewCluster(fab, an, opts)
		for p, r := range c.Replicas {
			if (r.bc != nil) != free || (r.rx != nil) != free || (r.Receiver() != nil) != free {
				t.Errorf("%s p%d: broadcaster %v, receiver %v; want both iff free methods (%v)",
					cls.Name, p, r.bc != nil, r.rx != nil, free)
			}
			for src := 0; src < n; src++ {
				if src == p {
					continue
				}
				reg := fab.Node(rdma.NodeID(p)).Region(broadcast.InboundRegion(opts.Namespace, rdma.NodeID(src)))
				if (reg != nil) != free {
					t.Errorf("%s p%d: inbound ring from %d registered = %v, want %v", cls.Name, p, src, reg != nil, free)
				}
			}
			// The replica's tickers are the summary scan (iff summary
			// groups) followed by the apply retry (iff buffered calls).
			want := 0
			if len(cls.SumGroups) > 0 {
				want++
			}
			if buffered {
				want++
			}
			if len(r.tickers) != want {
				t.Errorf("%s p%d: %d tickers, want %d (summary scan %v, apply retry %v)",
					cls.Name, p, len(r.tickers), want, len(cls.SumGroups) > 0, buffered)
			}
		}
		c.Stop()
	}
}
