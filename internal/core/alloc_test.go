package core

import (
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// TestTracerDisabledZeroAlloc pins the cost of conformance instrumentation
// at zero when no tracer is attached: the exact guard pattern used on the
// invoke/apply hot paths — trace, traceData, and a tracing()-gated payload
// build — must not allocate. Payload construction (callID strings,
// CallRecord boxing) happens only behind the guard, so a disabled tracer
// can never tax production runs.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 1, 1, func(o *Options) { o.CheckIntegrity = false })
	r := h.cluster.Replica(0)
	if r.tracing() {
		t.Fatal("harness attached a tracer unexpectedly")
	}
	c := spec.Call{Method: crdt.CounterAdd, Proc: 0, Seq: 7, Args: spec.Args{I: []int64{1}}}
	allocs := testing.AllocsPerRun(1000, func() {
		r.trace(trace.Issue, c, "enter")
		if r.tracing() {
			r.traceData(trace.Apply, c, "", trace.CallRecord{C: c})
		}
		r.traceData(trace.Complete, c, "", nil)
	})
	if allocs != 0 {
		t.Errorf("disabled-tracer hot path allocates %.1f objects per call, want 0", allocs)
	}
}

// TestTracerCostVanishesWhenDisabled drives real reducible invokes through
// a live single-node cluster and compares per-cycle allocations with the
// tracer detached and attached. The attached run must allocate strictly
// more — proving the lifecycle events a conformance run records are work
// the tracing() guards genuinely skip, not merely defer, when disabled.
func TestTracerCostVanishesWhenDisabled(t *testing.T) {
	measure := func(attach bool) float64 {
		h := newHarness(t, crdt.NewCounter(), 1, 1, func(o *Options) { o.CheckIntegrity = false })
		r := h.cluster.Replica(0)
		if attach {
			r.opts.Tracer = trace.New(h.eng, 1<<16)
		}
		now := h.eng.Now()
		return testing.AllocsPerRun(200, func() {
			r.Invoke(crdt.CounterAdd, spec.Args{I: []int64{1}}, nil)
			now += sim.Time(100 * sim.Microsecond)
			h.eng.RunUntil(now)
		})
	}
	off, on := measure(false), measure(true)
	if on <= off {
		t.Errorf("tracer-attached invoke allocates %.1f/op, detached %.1f/op; want attached > detached", on, off)
	}
	t.Logf("allocs per invoke cycle: detached %.1f, attached %.1f", off, on)
}

// TestFoldedDeltaScanZeroAlloc pins the steady-state cost of the summary
// scan, which runs on every SumScanPeriod tick: a pass over a δ-log whose
// records are all folded already validates each record's frame and skips
// it without decoding its body, so it must not allocate.
func TestFoldedDeltaScanZeroAlloc(t *testing.T) {
	h := newHarness(t, schema.NewProjectManagement(), 2, 3, func(o *Options) {
		o.CheckIntegrity = false
		o.DisableFailureHandling = true
	})
	h.eng.At(0, func() {
		for i := int64(0); i < 6; i++ {
			h.invoke(0, schema.RefAddRight, spec.ArgsI(i, 100+i))
		}
	})
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("reducible calls did not replicate")
	}
	deltas, anchors, _ := deltaStats(h.cluster)
	if deltas < 5 || anchors != 1 {
		t.Fatalf("writer shipped %d δ-records and %d anchors; want one anchor, then δ-records", deltas, anchors)
	}
	r := h.cluster.Replica(1)
	slot := r.sums[0][0]
	if slot.version != 6 {
		t.Fatalf("reader folded slot to v%d, want v6", slot.version)
	}
	allocs := testing.AllocsPerRun(1000, r.scanSummaries)
	if slot.version != 6 {
		t.Fatalf("a pass over folded records moved the slot to v%d", slot.version)
	}
	if allocs != 0 {
		t.Errorf("scan pass over folded δ-records allocates %.1f objects, want 0", allocs)
	}
}
