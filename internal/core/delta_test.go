package core

import (
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// deltaStats sums the delta pipeline counters across a cluster.
func deltaStats(c *Cluster) (deltas, anchors, fetches uint64) {
	for _, r := range c.Replicas {
		d, a, f := r.DeltaStats()
		deltas += d
		anchors += a
		fetches += f
	}
	return
}

// TestDeltaSummariesConverge drives the same seeded random reducible
// traffic from every node at several anchor intervals and in full-state
// mode (no δ-log): every run must converge, all to the same final state
// (anchor-interval invariance), with the wire carrying mostly δ-records
// once the interval exceeds one.
func TestDeltaSummariesConverge(t *testing.T) {
	var want spec.State
	for _, tc := range []struct {
		name     string
		interval int
		full     bool
	}{{"interval1", 1, false}, {"interval3", 3, false}, {"interval8", 8, false}, {"full", 8, true}} {
		h := newHarness(t, crdt.NewPNCounter(), 4, 71, func(o *Options) {
			o.AnchorInterval = tc.interval
			if tc.full {
				o.DeltaLogBytes = 0
			}
		})
		h.eng.At(0, func() {
			for i := 0; i < 40; i++ {
				p := spec.ProcID(h.rng.Intn(4))
				if h.rng.Intn(2) == 0 {
					h.invoke(p, crdt.PNInc, spec.ArgsI(int64(h.rng.Intn(50))))
				} else {
					h.invoke(p, crdt.PNDec, spec.ArgsI(int64(h.rng.Intn(50))))
				}
			}
		})
		if !h.drain(100 * sim.Millisecond) {
			t.Fatalf("%s: replication did not complete", tc.name)
		}
		h.checkConvergence()
		got := h.cluster.Replica(0).CurrentState()
		if want == nil {
			want = got
		} else if !got.Equal(want) {
			t.Fatalf("%s: final state %v, want %v (from interval1)", tc.name, got, want)
		}
		deltas, anchors, _ := deltaStats(h.cluster)
		switch {
		case tc.full && deltas != 0:
			t.Fatalf("full: %d δ-records written with no δ-log", deltas)
		case !tc.full && (deltas == 0 || anchors == 0):
			t.Fatalf("%s: delta pipeline idle: deltas=%d anchors=%d", tc.name, deltas, anchors)
		case !tc.full && tc.interval > 1 && deltas < anchors:
			t.Fatalf("%s: anchors dominate (%d anchors vs %d deltas)", tc.name, anchors, deltas)
		}
	}
}

// TestDeltaLogWrapReanchors fills a deliberately tiny δ-log so the writer
// re-anchors on wraparound; readers must skip the stale records left from
// earlier rounds and stay convergent.
func TestDeltaLogWrapReanchors(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 3, 72, func(o *Options) {
		o.AnchorInterval = 1 << 20 // anchors only when the log wraps
		o.DeltaLogBytes = 96       // two-ish records per round
	})
	h.eng.At(0, func() {
		for i := 0; i < 30; i++ {
			h.invoke(spec.ProcID(i%3), crdt.CounterAdd, spec.ArgsI(int64(i)))
		}
	})
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	_, anchors, _ := deltaStats(h.cluster)
	if anchors < 6 {
		t.Fatalf("log wrap produced only %d anchors; want several rounds", anchors)
	}
}

// TestDeltaFullAblationAgree runs the same workload in delta and full-state
// modes: final states must match and delta mode must move fewer bytes.
func TestDeltaFullAblationAgree(t *testing.T) {
	run := func(deltaOn bool) (spec.State, uint64) {
		h := newHarness(t, crdt.NewGSet(), 3, 73, func(o *Options) {
			if !deltaOn {
				o.DeltaLogBytes = 0
			}
		})
		h.eng.At(0, func() {
			for i := 0; i < 24; i++ {
				h.invoke(spec.ProcID(i%3), crdt.GSetAdd, spec.ArgsI(int64(i%7)))
			}
		})
		if !h.drain(100 * sim.Millisecond) {
			t.Fatal("replication did not complete")
		}
		h.checkConvergence()
		return h.cluster.Replica(0).CurrentState(), h.fab.Stats().BytesWritten
	}
	dState, dBytes := run(true)
	fState, fBytes := run(false)
	if !dState.Equal(fState) {
		t.Fatalf("delta and full modes diverged:\n delta %v\n full  %v", dState, fState)
	}
	if dBytes >= fBytes {
		t.Fatalf("delta mode moved %d bytes, full mode %d; want a reduction", dBytes, fBytes)
	}
}

// TestDeltaTornParkFetchesFullState installs a long-lived torn-write fault
// on the writer→reader link: the reader's scans reject the torn frame, and
// after tornParkScans stuck scans it must stop waiting and recover through a
// one-sided full-state fetch of the writer's own (clean) slot.
func TestDeltaTornParkFetchesFullState(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 74, func(o *Options) {
		o.DisableFailureHandling = true
	})
	h.eng.At(0, func() {
		h.fab.SetLinkTorn(0, 1, 200*sim.Microsecond, 0)
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(5))
	})
	h.eng.RunUntil(sim.Time(100 * sim.Microsecond))
	r1 := h.cluster.Replica(1)
	if got := r1.CurrentState().(*crdt.CounterState).V; got != 5 {
		t.Fatalf("reader state = %d before the tear heals, want 5 via fetch", got)
	}
	if _, _, fetches := deltaStats(h.cluster); fetches == 0 {
		t.Fatal("no gap fetch recorded; the reader must not wait out a parked frame")
	}
	if r1.TornRejects() < tornParkScans {
		t.Fatalf("only %d torn rejects; the park threshold never engaged", r1.TornRejects())
	}
}

// TestDeltaGapFetchesFullState forges the failure the gap rule exists for:
// the reader's log jumps versions because intermediate δ-records were lost.
// The reader must not fold across the hole; it recovers the writer's
// authoritative full state with a one-sided read instead.
func TestDeltaGapFetchesFullState(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 75, func(o *Options) {
		o.DisableFailureHandling = true
		o.AnchorInterval = 1 << 20
	})
	h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(5)) })
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("seed write did not replicate")
	}

	// Writer advances to v3 while its link to the reader is cut, so the
	// reader's log misses v2 and v3.
	h.eng.At(h.eng.Now(), func() {
		h.fab.PartitionLink(0, 1)
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(7))
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(9))
	})
	h.eng.RunFor(5 * sim.Millisecond)

	// The writer's crash drops its parked verbs; a later v4 record reaching
	// the reader over a healed path is the gap. Forge that record directly
	// in the reader's log (contents match the writer's real v3 state plus
	// one more call the reader also never saw applied elsewhere).
	r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
	rec, err := codec.EncodeDeltaRecord(codec.DeltaRecord{
		Kind: codec.FrameDelta, Version: 4, Counts: []uint32{4},
		C: spec.Call{Method: crdt.CounterAdd, Args: spec.ArgsI(0), Proc: 0, Seq: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.eng.At(h.eng.Now(), func() {
		off := r1.slotOffset(0, 0)
		copy(r1.node.Region(sumRegionBase).Bytes()[off+r1.anchorCap():], rec)
	})
	h.eng.RunFor(5 * sim.Millisecond)

	if _, _, fetches := deltaStats(h.cluster); fetches == 0 {
		t.Fatal("version gap did not trigger a full-state fetch")
	}
	// The fetch adopted the writer's authoritative v3 state (5+7+9); the
	// forged v4 was left behind by the version gate, not folded blindly.
	if got := r1.CurrentState().(*crdt.CounterState).V; got != 21 {
		t.Fatalf("reader state = %d after gap recovery, want 21", got)
	}
	if got := r0.CurrentState().(*crdt.CounterState).V; got != 21 {
		t.Fatalf("writer state = %d, want 21", got)
	}
}
