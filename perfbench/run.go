package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"hamband/internal/bench"
	"hamband/internal/core"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// outcome is one phase's measurement.
type outcome struct {
	phase     string
	attempted int // calls the phase was to issue
	answered  int // calls completed, permissibility rejections included
	failed    int // calls lost, errored other than by rejection, or unfinished
	rejected  int

	makespan sim.Duration   // start → every accepted update applied everywhere
	rts      []float64      // every call's virtual response time, µs, sorted
	rtSum    uint64         // digest of rts, kept when rts is dropped
	events   uint64         // engine events executed
	busy     []sim.Duration // per node: CPU busy time charged during the run
	calls    uint64         // digest of the generated calls

	cpu        time.Duration // process CPU time (user + system) of the run
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	liveHeap   uint64 // heap in use after a forced GC, before teardown

	probe classProbe // class wrapper counts at the end of a traced run

	err error // correctness violation
}

// opsPerUs is the paper's throughput: calls ÷ virtual time until every
// update is replicated on every live node.
func (o *outcome) opsPerUs() float64 {
	if o.makespan <= 0 {
		return 0
	}
	return float64(o.answered) / o.makespan.Micros()
}

// sameVirtual reports whether two runs of one phase produced the same
// virtual-time results: the simulation is deterministic for a seed.
func (o *outcome) sameVirtual(b *outcome) error {
	switch {
	case o.makespan != b.makespan:
		return fmt.Errorf("%s: makespan %v vs %v", o.phase, o.makespan, b.makespan)
	case o.events != b.events:
		return fmt.Errorf("%s: %d vs %d engine events", o.phase, o.events, b.events)
	case o.calls != b.calls:
		return fmt.Errorf("%s: generated calls differ", o.phase)
	case o.answered != b.answered || o.rejected != b.rejected || o.failed != b.failed:
		return fmt.Errorf("%s: call outcomes differ", o.phase)
	case o.rtSum != b.rtSum:
		return fmt.Errorf("%s: response times differ", o.phase)
	}
	return nil
}

// sortRTs sorts the response times and digests them.
func (o *outcome) sortRTs() {
	sort.Float64s(o.rts)
	h := fnv.New64a()
	var buf [8]byte
	for _, rt := range o.rts {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(rt))
		h.Write(buf[:])
	}
	o.rtSum = h.Sum64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// attach configures what a simulation records besides its outcome.
type attach struct {
	traced  bool      // attach a registry, a tracer and class wrappers
	profile io.Writer // receives a CPU profile of the driven run
	// inspect reads the deployment after the checks, before teardown.
	inspect func(*deployment, *recorder, *outcome)
}

// simSeed derives the seed of simulation i of a phase. The seeds of the
// streams one simulation draws (seed+1 to seed+4) never meet another's.
func simSeed(seed int64, sims, i int) int64 { return (seed*int64(sims) + int64(i)) << 4 }

// runPhase runs a phase as w.sims independent simulations and pools their
// calls: throughput is all calls over the summed makespans, and
// percentiles are over every call of every simulation.
func runPhase(w workload, seed int64, ph phase) *outcome {
	var o *outcome
	for i := 0; i < w.sims; i++ {
		s := runSim(w, simSeed(seed, w.sims, i), ph, attach{})
		if o == nil {
			o = s
			continue
		}
		o.attempted += s.attempted
		o.answered += s.answered
		o.failed += s.failed
		o.rejected += s.rejected
		o.makespan += s.makespan
		o.rts = append(o.rts, s.rts...)
		o.events += s.events
		o.calls = o.calls*1099511628211 ^ s.calls
		o.cpu += s.cpu
		o.mallocs += s.mallocs
		o.allocBytes += s.allocBytes
		o.gcs += s.gcs
		o.liveHeap = max(o.liveHeap, s.liveHeap)
		if o.err == nil {
			o.err = s.err
		}
	}
	o.sortRTs()
	return o
}

// runSim builds a fresh deployment, drives one closed-loop simulation
// through bench.Run, checks the replicated outputs and tears the
// deployment down.
func runSim(w workload, seed int64, ph phase, at attach) *outcome {
	ops := ph.ops(w)
	o := &outcome{phase: ph.name, attempted: ops}
	d, err := build(w, seed, at.traced)
	if err != nil {
		o.failed, o.err = ops, err
		return o
	}
	defer d.stop()
	rec := newRecorder(d, w, seed, ops)
	wl := bench.NewWorkload(d.an, nodes, ops, w.update, seed+1)
	wl.Concurrency = ph.depth

	// Clients arrive at a seeded instant within one summary-scan period
	// of deployment, so the replication barrier, which falls on a scan
	// tick, is not at the same offset from the start for every seed.
	arrive := rand.New(rand.NewSource(seed + 4)).Int63n(int64(core.DefaultOptions().SumScanPeriod))
	d.eng.RunFor(sim.Duration(arrive))
	start, events0 := d.eng.Now(), d.eng.Executed()
	for i := 0; i < nodes; i++ {
		o.busy = append(o.busy, -d.fab.Node(rdma.NodeID(i)).CPU.BusyTotal())
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if at.profile != nil {
		if err := pprof.StartCPUProfile(at.profile); err != nil {
			o.failed, o.err = ops, fmt.Errorf("start CPU profile: %w", err)
			return o
		}
	}
	c0 := cpuTime()
	res := bench.Run(d.eng, rec, wl)
	o.cpu = cpuTime() - c0
	if at.profile != nil {
		pprof.StopCPUProfile()
	}
	if d.probe != nil {
		o.probe = *d.probe
	}
	runtime.ReadMemStats(&m1)
	o.mallocs = m1.Mallocs - m0.Mallocs
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	o.gcs = m1.NumGC - m0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m1)
	o.liveHeap = m1.HeapAlloc

	if rec.barrier == 0 && !res.TimedOut && rec.replicated() {
		// bench.Run's own probe saw the barrier at the same instant as ours
		// would have, and stopped the engine first.
		rec.barrier = d.eng.Now()
	}
	o.makespan = sim.Duration(rec.barrier - start)
	o.events = d.eng.Executed() - events0
	for i := range o.busy {
		o.busy[i] += d.fab.Node(rdma.NodeID(i)).CPU.BusyTotal()
	}
	o.calls = rec.calls.Sum64()
	o.answered, o.rejected = rec.answered, rec.rejected
	o.failed = ops - rec.answered // lost, errored and unfinished calls
	o.rts = make([]float64, len(rec.rts))
	for i, rt := range rec.rts {
		o.rts[i] = rt.Micros()
	}
	o.sortRTs()

	objs := make([]replicaSet, len(d.clusters))
	for i, c := range d.clusters {
		objs[i] = clusterSet{c}
	}
	invariant := w.class().Invariant // unwrapped: checks are not counted
	switch {
	case res.TimedOut || rec.barrier == 0:
		o.err = fmt.Errorf("%s: replication barrier not reached within %v", ph.name, bench.Deadline)
	case o.failed > 0:
		o.err = fmt.Errorf("%s: %d of %d calls failed (%d lost, %d errors)", ph.name, o.failed, ops, res.Lost, rec.errored)
	default:
		if err := checkReplicas(objs, rec.accepted, invariant); err != nil {
			o.err = fmt.Errorf("%s: %w", ph.name, err)
		}
	}
	if o.err != nil {
		o.failed = ops
	}
	if at.inspect != nil {
		at.inspect(d, rec, o)
	}
	return o
}

// timeSetup measures set-up alone n times and returns each duration in
// seconds. A GC before each sample keeps earlier garbage from being
// charged to it.
func timeSetup(w workload, seed int64, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := build(w, seed, false)
		dt := time.Since(t0)
		if err != nil {
			return nil, err
		}
		d.stop()
		out = append(out, dt.Seconds())
	}
	return out, nil
}
