package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/spec"
)

// small shrinks a workload to one simulation per phase with just enough
// latency calls for a p99 with ten samples beyond it.
func small(w workload) workload {
	w.sims, w.capOps, w.latOps = 1, 1100, 1100
	return w
}

func TestSameSeedSameResults(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := timedRun(small(w), 7, 0, io.Discard, io.Discard)
			b := timedRun(small(w), 7, 0, io.Discard, io.Discard)
			if !a.Correct || !b.Correct || a.Failed != 0 {
				t.Fatalf("incorrect run: %+v / %+v", a, b)
			}
			if a.Attempted != b.Attempted {
				t.Errorf("attempted %d vs %d", a.Attempted, b.Attempted)
			}
			for _, name := range []string{"vt_ops_per_us", "vt_loaded_p99_us", "vt_mean_us", "vt_p99_us", "ok_frac"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			// The Go runtime allocates a few dozen objects of its own per
			// repetition (GC and timer bookkeeping), and its own state
			// moves the live heap by a few kilobytes, so these repeat
			// closely but not to the bit.
			for name, tol := range map[string]float64{"host_allocs_per_op": 1e-3, "live_heap_mb": 1e-2} {
				x, y := a.Metrics[name].Value, b.Metrics[name].Value
				if math.Abs(x-y) > tol*x {
					t.Errorf("%s: %v vs %v", name, x, y)
				}
			}
		})
	}
}

func TestSeedChangesCalls(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		a := runPhase(w, 7, capacity)
		b := runPhase(w, 8, capacity)
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: %v / %v", w.name, a.err, b.err)
		}
		if a.calls == b.calls {
			t.Errorf("%s: seeds 7 and 8 generated the same calls", w.name)
		}
		if again := runPhase(w, 7, capacity); again.calls != a.calls {
			t.Errorf("%s: seed 7 generated different calls on a second run", w.name)
		}
	}
}

// diverged reads a replica set but shows replica p with one extra update.
type diverged struct {
	replicaSet
	p     spec.ProcID
	extra spec.Call
	cls   *spec.Class
}

func (d diverged) State(p spec.ProcID) spec.State {
	st := d.replicaSet.State(p)
	if p == d.p {
		d.cls.ApplyCall(st, d.extra)
	}
	return st
}

func TestCheckRejectsDivergedReplica(t *testing.T) {
	w := small(workloads[0]) // reduce-counter
	var errs []error
	o := runSim(w, 7, capacity, attach{inspect: func(d *deployment, rec *recorder, _ *outcome) {
		objs := []replicaSet{clusterSet{d.clusters[0]}}
		cls := d.an.Class
		errs = append(errs, checkReplicas(objs, rec.accepted, cls.Invariant))

		bad := []replicaSet{diverged{objs[0], 2, spec.Call{Method: crdt.CounterAdd, Args: spec.ArgsI(5)}, cls}}
		errs = append(errs, checkReplicas(bad, rec.accepted, cls.Invariant))

		missing := spec.NewAppliedMap(nodes, len(cls.Methods))
		for src, row := range rec.accepted[0] {
			copy(missing[src], row)
		}
		missing[1][crdt.CounterAdd]++ // an accepted update no replica applied
		errs = append(errs, checkReplicas(objs, [][][]uint32{missing}, cls.Invariant))
	}})
	if o.err != nil {
		t.Fatal(o.err)
	}
	if errs[0] != nil {
		t.Fatalf("converged replicas rejected: %v", errs[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "diverges") {
		t.Errorf("diverged replica accepted: %v", errs[1])
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "accepted") {
		t.Errorf("unapplied update accepted: %v", errs[2])
	}
}

func TestExactPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p50, err := exactPercentile(xs, 50)
	if err != nil || p50.value != 500 || p50.beyond != 500 || p50.samples != 1000 {
		t.Errorf("p50 = %+v, %v", p50, err)
	}
	p99, err := exactPercentile(xs, 99)
	if err != nil || p99.value != 990 || p99.beyond != 10 {
		t.Errorf("p99 = %+v, %v", p99, err)
	}
	if _, err := exactPercentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples, 9 beyond it, was reported")
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameNames reports any difference between reported and declared metrics.
func sameNames(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: %s reported as %+v, declared in %s", what, name, m, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s is not declared", what, name)
		}
	}
}

func TestReportsDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		timed := timedRun(small(w), 7, 0, io.Discard, io.Discard)
		traced := tracedRun(small(w), 7, 0, io.Discard, io.Discard)
		if !timed.Correct || !traced.Correct {
			t.Fatalf("%s: run failed", w.name)
		}
		sameNames(t, w.name, timed.Metrics, endToEnd)
		sameNames(t, w.name+" traced", traced.Metrics, perLayer)
	}
}

func TestModuleSamples(t *testing.T) {
	cases := map[string]string{
		"hamband/internal/core.(*Replica).scan":        "core",
		"hamband/internal/codec.decodePackedCall":      "codec",
		"hamband/internal/baseline/smr.(*R).Invoke":    "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"container/heap.Pop":                           "other",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	runSim(small(workloads[0]), 7, capacity, attach{})
	pprof.StopCPUProfile()
	byModule := map[string]int64{}
	if err := addModuleSamples(byModule, prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := addModuleSamples(byModule, []byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func TestOutputLine(t *testing.T) {
	var out, log bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &log); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
	res := newResult()
	res.Attempted = 3
	res.set("setup_s", 0.5, "s")
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 {
		t.Errorf("output line has keys %v, want correct, attempted, failed, metrics", back)
	}
}
