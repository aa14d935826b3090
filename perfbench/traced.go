package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"hamband/internal/metrics"
	"hamband/internal/span"
	"hamband/internal/spec"
)

// classProbe counts and times the calls the runtime makes into a class's
// method and invariant functions.
type classProbe struct {
	apply, eval, invariant uint64
	busy                   time.Duration
}

// wrap replaces the class's Apply, Eval and Invariant function fields with
// counting wrappers. It must run before the class is analysed.
func (cp *classProbe) wrap(cls *spec.Class) {
	for i := range cls.Methods {
		m := &cls.Methods[i]
		if apply := m.Apply; apply != nil {
			m.Apply = func(s spec.State, a spec.Args) {
				t := time.Now()
				apply(s, a)
				cp.busy += time.Since(t)
				cp.apply++
			}
		}
		if eval := m.Eval; eval != nil {
			m.Eval = func(s spec.State, a spec.Args) any {
				t := time.Now()
				v := eval(s, a)
				cp.busy += time.Since(t)
				cp.eval++
				return v
			}
		}
	}
	if inv := cls.Invariant; inv != nil {
		cls.Invariant = func(s spec.State) bool {
			t := time.Now()
			ok := inv(s)
			cp.busy += time.Since(t)
			cp.invariant++
			return ok
		}
	}
}

// stages lists every (category, stage) pair the span layer reports, in
// protocol order. A stage a workload never runs reports 0, as do stages
// that are always 0 ns today (reducible summarize and complete).
var stages = []struct{ category, name string }{
	{span.CatReducible, "queue"}, {span.CatReducible, "summarize"}, {span.CatReducible, "complete"},
	{span.CatReducible, "doorbell"}, {span.CatReducible, "wire"}, {span.CatReducible, "adopt"},
	{span.CatConflictFree, "queue"}, {span.CatConflictFree, "local-apply"}, {span.CatConflictFree, "complete"},
	{span.CatConflictFree, "doorbell"}, {span.CatConflictFree, "wire"}, {span.CatConflictFree, "ack"},
	{span.CatConflictFree, "remote-apply"},
	{span.CatConflicting, "queue"}, {span.CatConflicting, "order"}, {span.CatConflicting, "commit"},
	{span.CatConflicting, "deliver"}, {span.CatConflicting, "remote-apply"},
}

// layers holds the per-layer metrics of one traced capacity phase.
type layers map[string]metric

func (l layers) set(name string, v float64, unit string) { l[name] = metric{v, unit} }

// collectLayers reads every layer's counters from a traced deployment after
// its capacity simulation.
func collectLayers(d *deployment, rec *recorder, o *outcome) (layers, error) {
	if n := d.tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("tracer dropped %d events; stage attribution would be partial", n)
	}
	l := layers{}
	ops := float64(o.answered)
	per := func(n uint64) float64 { return float64(n) / ops }
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	us := func(h *metrics.Histogram, q float64) float64 { return h.Quantile(q).Micros() }
	reg := d.reg

	l.set("sim.events_per_op", per(o.events), "events/call")

	var busyMax, busySum float64
	for _, b := range o.busy {
		u := float64(b) / float64(o.makespan)
		busySum += u
		if u > busyMax {
			busyMax = u
		}
	}
	l.set("node.cpu_util_max", busyMax, "ratio")
	l.set("node.cpu_util_mean", busySum/nodes, "ratio")

	fs := d.fab.Stats()
	l.set("rdma.writes_per_op", per(fs.Writes), "verbs/call")
	l.set("rdma.reads_per_op", per(fs.Reads), "verbs/call")
	l.set("rdma.cas_per_op", per(fs.CASes), "verbs/call")
	l.set("rdma.bytes_per_op", per(fs.BytesWritten), "B/call")
	l.set("rdma.doorbells_per_op", per(fs.Writes+fs.Reads+fs.CASes-fs.ChainedWRs), "doorbells/call")
	l.set("rdma.inline_frac", frac(fs.InlineWrites, fs.Writes), "ratio")
	l.set("rdma.unsignaled_frac", frac(fs.Unsignaled, fs.Writes), "ratio")

	l.set("core.rejected_frac", per(reg.Counter("core.rejected").Value()), "ratio")
	l.set("core.delta_records_per_op", per(reg.Counter("core.delta_records").Value()), "records/call")
	l.set("core.anchor_writes_per_op", per(reg.Counter("core.anchor_writes").Value()), "writes/call")
	l.set("core.gap_fetches", float64(reg.Counter("core.gap_fetches").Value()), "count")
	l.set("core.queue.conf_depth_max", float64(reg.Gauge("core.queue.conf_depth").Max()), "calls")
	l.set("core.queue.free_depth_max", float64(reg.Gauge("core.queue.free_depth").Max()), "calls")

	got := map[string]span.StageStats{}
	for _, cr := range span.Analyze(span.Build(d.tr.Events()), nil).Categories {
		for _, st := range cr.Stages {
			got[cr.Category+"."+st.Name] = st
		}
	}
	for _, st := range stages {
		key := st.category + "." + st.name
		l.set("stage."+key+".p50_us", got[key].P50.Micros(), "us")
		l.set("stage."+key+".p99_us", got[key].P99.Micros(), "us")
	}

	l.set("broadcast.delivered_per_op", per(reg.Counter("broadcast.delivered").Value()), "records/call")
	l.set("broadcast.ring_full_retries_per_op", per(reg.Counter("broadcast.ring_full_retries").Value()), "retries/call")
	l.set("broadcast.head_reads_per_op", per(reg.Counter("broadcast.head_reads").Value()), "reads/call")
	l.set("broadcast.backup_slot_waits", float64(reg.Counter("broadcast.backup_slot_waits").Value()), "count")

	commit := reg.Histogram("mu.commit_latency", nil)
	l.set("mu.commit_latency.p50_us", us(commit, 0.5), "us")
	l.set("mu.commit_latency.p99_us", us(commit, 0.99), "us")
	l.set("mu.elections", float64(reg.Counter("mu.elections").Value()), "count")
	l.set("mu.leader_changes", float64(reg.Counter("mu.leader_changes").Value()), "count")
	l.set("heartbeat.suspicions", float64(reg.Counter("heartbeat.suspicions").Value()), "count")

	var crossChains, crossWRs uint64
	var hot, arenaMB float64
	if d.st != nil {
		for i := 0; i < nodes; i++ {
			cs := d.st.Coalescer(i).Stats()
			crossChains += cs.CrossChains
			crossWRs += cs.CrossWRs
		}
		maxObj := 0
		for _, n := range rec.perObject {
			maxObj = max(maxObj, n)
		}
		hot = float64(maxObj) / ops
		used, _ := d.st.Budget(0)
		arenaMB = float64(used) / 1e6
	}
	l.set("store.cross_chain_frac", frac(crossChains, fs.Chains), "ratio")
	l.set("store.cross_wrs_per_op", per(crossWRs), "WRs/call")
	l.set("store.hot_shard_share", hot, "ratio")
	l.set("store.arena_used_mb", arenaMB, "MB")

	l.set("class.apply_calls_per_op", per(o.probe.apply), "calls/call")
	l.set("class.invariant_calls_per_op", per(o.probe.invariant), "calls/call")
	l.set("class.eval_calls_per_op", per(o.probe.eval), "calls/call")
	l.set("class.host_ns_per_op", float64(o.probe.busy.Nanoseconds())/ops, "ns/call")
	return l, nil
}

// tracedRun reports the per-layer metrics of the first simulation of the
// capacity phase. It runs that simulation plainly, repeatedly, each time
// under a CPU profile, until half the budget is spent; then once with a
// registry, a tracer and the class wrappers attached. Tracing must change
// no virtual-time result. The profile is taken of the plain runs: with
// the tracer attached, its own recording takes most of the samples.
func tracedRun(w workload, seed int64, budget time.Duration, out, log io.Writer) *result {
	res := newResult()
	seed = simSeed(seed, w.sims, 0)
	start := time.Now()
	byModule := map[string]int64{}
	var plain *outcome
	var cpus []float64
	for len(cpus) < minReps || time.Since(start) < budget/2 {
		var prof bytes.Buffer
		o := runSim(w, seed, capacity, attach{profile: &prof})
		res.add(o, log)
		if !res.Correct {
			return res
		}
		if plain == nil {
			plain = o
		} else if err := plain.sameVirtual(o); err != nil {
			res.fail(fmt.Errorf("repetition %d is not deterministic: %v", len(cpus), err), log)
			return res
		}
		if err := addModuleSamples(byModule, prof.Bytes()); err != nil {
			res.fail(err, log)
			return res
		}
		cpus = append(cpus, o.cpu.Seconds())
	}
	plainLat := runSim(w, seed, latency, attach{})
	res.add(plainLat, log)

	var l layers
	var layerErr error
	tracedCap := runSim(w, seed, capacity, attach{traced: true,
		inspect: func(d *deployment, rec *recorder, o *outcome) { l, layerErr = collectLayers(d, rec, o) },
	})
	var dropped int
	tracedLat := runSim(w, seed, latency, attach{traced: true,
		inspect: func(d *deployment, _ *recorder, _ *outcome) { dropped = d.tr.Dropped() },
	})
	res.add(tracedCap, log)
	res.add(tracedLat, log)
	if !res.Correct {
		return res
	}
	checks := []error{layerErr, plain.sameVirtual(tracedCap), plainLat.sameVirtual(tracedLat)}
	if dropped > 0 {
		checks = append(checks, fmt.Errorf("latency: tracer dropped %d events", dropped))
	}
	for _, e := range checks {
		if e != nil {
			res.fail(fmt.Errorf("traced run: %w", e), log)
		}
	}
	if !res.Correct {
		return res
	}

	plainCPU := median(cpus)
	l.set("sim.host_ns_per_event", plainCPU*1e9/float64(plain.events), "ns/event")
	l.set("host.alloc_bytes_per_op", float64(plain.allocBytes)/float64(plain.answered), "B/call")
	l.set("host.gc_cycles", float64(plain.gcs), "count")
	l.set("trace.overhead_frac", tracedCap.cpu.Seconds()/plainCPU-1, "ratio")
	var samples int64
	for _, n := range byModule {
		samples += n
	}
	for _, m := range modules {
		share := 0.0
		if samples > 0 {
			share = float64(byModule[m]) / float64(samples)
		}
		l.set("host.share."+m, share, "ratio")
	}
	fmt.Fprintf(out, "%s seed %d traced: %d capacity calls, %d engine events, %d plain runs, %d CPU samples\n",
		w.name, seed, tracedCap.answered, tracedCap.events, len(cpus), samples)
	for _, name := range sortedKeys(l) {
		m := l[name]
		res.Metrics[name] = m
		fmt.Fprintf(out, "  %-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
