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

// TestCounterOnlyStoreHasNoRings covers a store whose shards have no
// irreducible conflict-free method: their replicas build no broadcast
// receiver, so every snapshot reports no inbound rings, the watchdog stays
// silent through a fault-free run across all nodes and shards, and a
// watched invoke cycle allocates exactly as much as an unwatched one.
func TestCounterOnlyStoreHasNoRings(t *testing.T) {
	const nodes, shards = 3, 4
	an := spec.MustAnalyze(crdt.NewCounter())
	measure := func(watched bool) float64 {
		eng := sim.NewEngine(2)
		fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
		opts := store.DefaultOptions()
		opts.Core.CheckIntegrity = false
		st := store.New(fab, opts)
		defer st.Stop()
		keys := make([]string, shards)
		for i := range keys {
			keys[i] = "c" + string(rune('0'+i))
			if _, err := st.Open(keys[i], an, store.ShardOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunFor(50 * sim.Microsecond)

		var wd *health.Watchdog
		observe := func() {
			if !watched {
				return
			}
			s := health.Collect(eng.Now(), st)
			for _, sh := range s.Shards {
				for _, n := range sh.Nodes {
					if len(n.Rings) != 0 {
						t.Fatalf("shard %s node %d reports %d inbound rings, want none", sh.Key, n.Node, len(n.Rings))
					}
				}
			}
			wd.Observe(s)
		}
		if watched {
			wd = health.NewWatchdog(health.Config{})
		}
		observe()
		// Spread updates over every node and shard so no rule has a
		// reason to fire (600 calls arm the hot-shard rule), observing at
		// the chaos runner's 100 µs period: every fourth 25 µs cycle.
		call := 0
		perShard := map[string]int64{}
		now := eng.Now()
		cycle := func() {
			key := keys[call%shards]
			perShard[key]++
			st.Invoke(key, spec.ProcID(call%nodes), crdt.CounterAdd, spec.Args{I: []int64{1}}, nil)
			call++
			now += sim.Time(25 * sim.Microsecond)
			eng.RunUntil(now)
		}
		for i := 0; i < 600; i++ {
			cycle()
			if i%4 == 3 {
				observe()
			}
		}
		allocs := testing.AllocsPerRun(100, cycle)
		observe()
		if watched {
			if fs := wd.Firings(); len(fs) != 0 {
				t.Fatalf("fault-free counter-only store fired the watchdog: %+v", fs)
			}
			eng.RunFor(sim.Millisecond)
			for _, key := range keys {
				for p := 0; p < nodes; p++ {
					if v := st.Shard(key).Replica(spec.ProcID(p)).CurrentState().(*crdt.CounterState).V; v != perShard[key] {
						t.Fatalf("shard %s p%d: counter %d, want %d", key, p, v, perShard[key])
					}
				}
			}
		}
		return allocs
	}
	off, on := measure(false), measure(true)
	if on != off {
		t.Errorf("invoke cycle allocates %.1f/op watched vs %.1f/op unwatched; health must add 0", on, off)
	}
	t.Logf("allocs per invoke cycle on %d counter shards × %d nodes: unwatched %.1f, watched %.1f", shards, nodes, off, on)
}
