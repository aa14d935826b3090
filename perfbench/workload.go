package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
	"hamband/internal/trace"
)

// nodes is the cluster size of every workload: the paper's four-node
// setup (Figs. 8b, 9b and 11).
const nodes = 4

// workload is one named input set of the benchmark. Every workload is a
// closed loop: each client waits for its reply before it issues the next
// call, as in the paper's evaluation.
type workload struct {
	name    string
	class   func() *spec.Class
	update  float64 // share of calls that are updates
	objects int     // 1: one replicated object; more: a store of counters
	zipfS   float64 // Zipf skew of the object each store call picks
	sims    int     // independent simulations per phase
	capOps  int     // calls per capacity simulation
	latOps  int     // calls per latency simulation
}

// The call counts are fixed, not scaled to the time budget: the OR-set's
// per-call cost grows with its state, so two commits are only comparable
// at the same run length. A phase pools several independent simulations
// because one long one gives a tail percentile that swings with a few
// bursts; every pooled latency phase keeps at least ten samples beyond
// its p99.
var workloads = []workload{
	{name: "reduce-counter", class: crdt.NewCounter, update: 0.25, objects: 1, sims: 4, capOps: 10000, latOps: 4000},
	{name: "buffer-orset", class: crdt.NewORSet, update: 0.25, objects: 1, sims: 4, capOps: 5000, latOps: 2000},
	{name: "mix-projectmgmt", class: schema.NewProjectManagement, update: 0.5, objects: 1, sims: 8, capOps: 3000, latOps: 500},
	{name: "store-zipf", class: crdt.NewCounter, update: 1, objects: 16, zipfS: 1.5, sims: 4, capOps: 3000, latOps: 1000},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is one closed-loop run: depth outstanding calls per node.
type phase struct {
	name  string
	depth int
	ops   func(workload) int
}

var (
	// capacity is the paper's saturating load, the one the figures plot.
	capacity = phase{name: "capacity", depth: 8, ops: func(w workload) int { return w.capOps }}
	// latency is the paper's unloaded response time (Figs. 8b and 9b).
	latency = phase{name: "latency", depth: 1, ops: func(w workload) int { return w.latOps }}
)

// thinkMean is the mean of the exponentially distributed think time a
// client spends between a reply and its next call. Without it every call
// of store-zipf costs the same whatever the seed, and its whole timeline,
// so every virtual-time metric, would not depend on the generated calls.
// The mean is far below every workload's response time, so the capacity
// phase stays saturated.
const thinkMean = 100 * sim.Nanosecond

// deployment is one freshly built system under test on its own engine.
type deployment struct {
	eng      *sim.Engine
	fab      *rdma.Fabric
	an       *spec.Analysis
	clusters []*core.Cluster // one per replicated object
	st       *store.Store    // nil for a single object
	keys     []string        // store keys, parallel to clusters

	// Instruments of a traced run; all nil otherwise.
	reg   *metrics.Registry
	tr    *trace.Tracer
	probe *classProbe
}

// traceLimit bounds the tracer's buffer far above what any workload
// records; a run that still drops events fails.
const traceLimit = 1 << 26

// build analyses the workload's class and builds the fabric, the cluster
// or store, and every shard. A traced build also attaches a metrics
// registry, a tracer and call-counting wrappers around the class.
func build(w workload, seed int64, traced bool) (*deployment, error) {
	cls := w.class()
	d := &deployment{eng: sim.NewEngine(seed)}
	if traced {
		d.probe = &classProbe{}
		d.probe.wrap(cls)
		d.reg = metrics.New(d.eng)
		d.tr = trace.New(d.eng, traceLimit)
	}
	an, err := spec.Analyze(cls)
	if err != nil {
		return nil, fmt.Errorf("analyse %s: %w", cls.Name, err)
	}
	d.an = an
	d.fab = rdma.NewFabric(d.eng, nodes, rdma.DefaultLatency())
	if w.objects == 1 {
		opts := core.DefaultOptions()
		opts.Metrics = d.reg
		opts.Tracer = d.tr
		d.clusters = []*core.Cluster{core.NewCluster(d.fab, an, opts)}
		return d, nil
	}
	opts := store.DefaultOptions()
	opts.Core.Metrics = d.reg
	opts.Tracer = d.tr
	d.st = store.New(d.fab, opts)
	for i := 0; i < w.objects; i++ {
		key := fmt.Sprintf("obj%02d", i)
		sh, err := d.st.Open(key, an, store.ShardOptions{})
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("open %s: %w", key, err)
		}
		d.keys = append(d.keys, key)
		d.clusters = append(d.clusters, sh.Cluster)
	}
	return d, nil
}

// stop cancels every poller, detector and consensus instance.
func (d *deployment) stop() {
	if d.st != nil {
		d.st.Stop()
		return
	}
	for _, c := range d.clusters {
		c.Stop()
	}
}

// recorder is the bench.System that bench.Run calls. It routes
// each generated call to its object and records every call's outcome and
// virtual response time through its own completion callback.
type recorder struct {
	d     *deployment
	zipf  *rand.Zipf // object choice; nil for a single object
	think *rand.Rand // think times

	calls hash.Hash64 // digest of every generated call, in issue order
	buf   [8]byte

	ops       int // calls the phase issues
	answered  int // completed calls, permissibility rejections included
	rejected  int // permissibility rejections
	errored   int // any other error
	rts       []sim.Duration
	accepted  [][][]uint32 // [object][origin][method]: successful updates
	perObject []int        // answered calls per object

	// barrier is when every accepted update was applied at every live
	// replica, found by a probe every tailStep once the last call is
	// answered; 0 until then.
	barrier sim.Time
}

// tailStep is the resolution of the replication barrier. bench.Run's own
// probe ticks every 2 µs, too coarse to tell seeds apart when every call
// costs the same, as in store-zipf.
const tailStep = 10 * sim.Nanosecond

func newRecorder(d *deployment, w workload, seed int64, ops int) *recorder {
	r := &recorder{
		d:         d,
		ops:       ops,
		calls:     fnv.New64a(),
		rts:       make([]sim.Duration, 0, ops),
		perObject: make([]int, len(d.clusters)),
		think:     rand.New(rand.NewSource(seed + 3)),
	}
	if len(d.clusters) > 1 {
		rng := rand.New(rand.NewSource(seed + 2))
		r.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(len(d.clusters)-1))
	}
	for range d.clusters {
		r.accepted = append(r.accepted, spec.NewAppliedMap(nodes, len(d.an.Class.Methods)))
	}
	return r
}

func (r *recorder) word(v uint64) {
	binary.LittleEndian.PutUint64(r.buf[:], v)
	r.calls.Write(r.buf[:])
}

// Invoke submits a generated call and wraps its completion.
func (r *recorder) Invoke(p spec.ProcID, u spec.MethodID, args spec.Args, onDone func(any, error)) {
	obj := 0
	if r.zipf != nil {
		obj = int(r.zipf.Uint64())
	}
	r.word(uint64(obj))
	r.word(uint64(p))
	r.word(uint64(u))
	for _, v := range args.I {
		r.word(uint64(v))
	}
	for _, s := range args.S {
		r.calls.Write([]byte(s))
	}
	update := r.d.an.Class.Methods[u].Kind == spec.Update
	start := r.d.eng.Now()
	landed := false
	cb := func(res any, err error) {
		if landed {
			return
		}
		landed = true
		r.rts = append(r.rts, sim.Duration(r.d.eng.Now()-start))
		switch {
		case err == nil:
			r.answered++
			r.perObject[obj]++
			if update {
				r.accepted[obj][p][u]++
			}
		case errors.Is(err, core.ErrImpermissible):
			r.answered++
			r.rejected++
			r.perObject[obj]++
		default:
			r.errored++
		}
		if r.answered+r.errored == r.ops {
			r.probeBarrier()
		}
		think := sim.Duration(r.think.ExpFloat64() * float64(thinkMean))
		r.d.eng.After(think, func() { onDone(res, err) })
	}
	if r.d.st != nil {
		r.d.st.Invoke(r.d.keys[obj], p, u, args, cb)
		return
	}
	r.d.clusters[0].Replica(p).Invoke(u, args, cb)
}

// probeBarrier starts a fine probe of the replication barrier.
func (r *recorder) probeBarrier() {
	var tick *sim.Ticker
	tick = r.d.eng.NewTicker(tailStep, func() {
		if r.replicated() {
			r.barrier = r.d.eng.Now()
			tick.Cancel()
		}
	})
}

// replicated reports whether every accepted update is applied at every
// live replica of its object.
func (r *recorder) replicated() bool {
	for o, c := range r.d.clusters {
		for p := spec.ProcID(0); p < nodes; p++ {
			if r.Down(p) {
				continue
			}
			applied := c.Replica(p).Applied()
			for src, row := range r.accepted[o] {
				for u, want := range row {
					if applied[src][u] < want {
						return false
					}
				}
			}
		}
	}
	return true
}

// Applied sums p's applied counts over every object. An object never
// applies more calls than were accepted for it, so the sum reaches the
// accepted total only when every object has caught up.
func (r *recorder) Applied(p spec.ProcID) spec.AppliedMap {
	if len(r.d.clusters) == 1 {
		return r.d.clusters[0].Replica(p).Applied()
	}
	sum := spec.NewAppliedMap(nodes, len(r.d.an.Class.Methods))
	for _, c := range r.d.clusters {
		for src, row := range c.Replica(p).Applied() {
			for u, n := range row {
				sum[src][u] += n
			}
		}
	}
	return sum
}

// Name names the system under test.
func (r *recorder) Name() string { return "Hamband" }

// Down reports whether node p is suspended or crashed.
func (r *recorder) Down(p spec.ProcID) bool {
	n := r.d.fab.Node(rdma.NodeID(p))
	return n.Suspended() || n.Crashed()
}

// Fail suspends node p. The benchmark injects no faults; the method exists
// because bench.System declares it.
func (r *recorder) Fail(p spec.ProcID) { r.d.fab.Node(rdma.NodeID(p)).Suspend() }

// State returns replica p's state of the first object.
func (r *recorder) State(p spec.ProcID) spec.State {
	return r.d.clusters[0].Replica(p).CurrentState()
}

// Size returns the cluster size.
func (r *recorder) Size() int { return nodes }
