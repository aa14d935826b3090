package health_test

import (
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/health"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
)

// TestSnapshotPathAddsZeroInvokeAllocs pins the health layer's core
// promise: introspection is pull-only, so a cluster being watched allocates
// exactly as much per invoke cycle as one that is not. The store under
// measurement hosts one counter shard on one node; the watched arm
// collects and observes a full snapshot around the measurement; if anyone
// ever pushes per-invoke hooks into the hot path on behalf of health, the
// two counts diverge and this test catches it.
func TestSnapshotPathAddsZeroInvokeAllocs(t *testing.T) {
	measure := func(watched bool) float64 {
		eng := sim.NewEngine(1)
		fab := rdma.NewFabric(eng, 1, rdma.DefaultLatency())
		opts := store.DefaultOptions()
		opts.Core.CheckIntegrity = false
		st := store.New(fab, opts)
		defer st.Stop()
		sh, err := st.Open("s00", spec.MustAnalyze(crdt.NewCounter()), store.ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng.RunFor(50 * sim.Microsecond) // settle elections before measuring

		var wd *health.Watchdog
		if watched {
			wd = health.NewWatchdog(health.Config{})
			wd.Observe(health.Collect(eng.Now(), st))
		}
		r := sh.Replica(0)
		now := eng.Now()
		allocs := testing.AllocsPerRun(200, func() {
			r.Invoke(crdt.CounterAdd, spec.Args{I: []int64{1}}, nil)
			now += sim.Time(100 * sim.Microsecond)
			eng.RunUntil(now)
		})
		if watched {
			wd.Observe(health.Collect(eng.Now(), st))
			if fs := wd.Firings(); len(fs) != 0 {
				t.Fatalf("healthy single-node store fired the watchdog: %+v", fs)
			}
		}
		return allocs
	}
	off, on := measure(false), measure(true)
	if on != off {
		t.Errorf("invoke cycle allocates %.1f/op watched vs %.1f/op unwatched; health must add 0", on, off)
	}
	t.Logf("allocs per invoke cycle: unwatched %.1f, watched %.1f", off, on)
}
