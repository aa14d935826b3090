// Command perfbench is the repository benchmark. It runs one named
// workload through the public APIs of the simulator's packages and prints,
// as the last line of its output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	go run . --workload reduce-counter --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones: virtual-time
// throughput and response times, which are deterministic for a seed, and
// the simulator's host cost, which is the median over as many repetitions
// of the fixed-size workload as fit in --seconds. With --trace 1 the
// workload runs once plainly and once with a metrics registry, a tracer,
// class wrappers and a CPU profile attached, and the metrics are the
// per-layer ones. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// add accounts a phase's calls and marks the result incorrect if the phase
// failed its correctness check.
func (r *result) add(o *outcome, log io.Writer) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	if o.err != nil {
		r.fail(o.err, log)
	}
}

func (r *result) fail(err error, log io.Writer) {
	r.Correct = false
	fmt.Fprintf(log, "FAIL: %v\n", err)
}

func run(args []string, out, log io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(log)
	name := fs.String("workload", "", "workload: reduce-counter, buffer-orset, mix-projectmgmt or store-zipf")
	seed := fs.Int64("seed", 1, "seed of the generated calls")
	seconds := fs.Int("seconds", 10, "time budget of the measured repetitions")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(log, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		fs.Usage()
		return 2
	}
	var res *result
	if *traced == 1 {
		res = tracedRun(w, *seed, time.Duration(*seconds)*time.Second, out, log)
	} else {
		res = timedRun(w, *seed, time.Duration(*seconds)*time.Second, out, log)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(log, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// minReps is the fewest repetitions a timed run medians over.
const minReps = 3

// setupsPerRep is how many set-ups are timed before each repetition.
// Spreading them over the whole run keeps a burst of load on the host
// from shifting every sample at once.
const setupsPerRep = 7

// timedRun measures the end-to-end metrics: repetitions of set-up alone
// and of the capacity and latency phases until the budget is spent.
// Virtual-time results must repeat exactly in every repetition; host costs
// are reported as medians.
func timedRun(w workload, seed int64, budget time.Duration, out, log io.Writer) *result {
	res := newResult()
	start := time.Now()
	var c, l *outcome // the first repetition, which the others must match
	var loaded, p50, p99 percentile
	var mean float64
	var setups, opsPerS, allocs, heap []float64
	reps := 0
	for ; reps < minReps || time.Since(start) < budget; reps++ {
		s, err := timeSetup(w, seed, setupsPerRep)
		if err != nil {
			res.fail(err, log)
			return res
		}
		setups = append(setups, s...)
		rc := runPhase(w, seed, capacity)
		rl := runPhase(w, seed, latency)
		res.add(rc, log)
		res.add(rl, log)
		if !res.Correct {
			return res
		}
		if c == nil {
			c, l = rc, rl
			var errs [3]error
			loaded, errs[0] = exactPercentile(c.rts, 99)
			p50, errs[1] = exactPercentile(l.rts, 50)
			p99, errs[2] = exactPercentile(l.rts, 99)
			for _, e := range errs {
				if e != nil {
					res.fail(e, log)
					return res
				}
			}
			for _, rt := range l.rts {
				mean += rt / float64(len(l.rts))
			}
			// Later repetitions are compared by digest; dropping the
			// samples keeps them out of the next repetition's live heap.
			c.rts, l.rts = nil, nil
		} else {
			for _, e := range []error{c.sameVirtual(rc), l.sameVirtual(rl)} {
				if e != nil {
					res.fail(fmt.Errorf("repetition %d is not deterministic: %v", reps, e), log)
					return res
				}
			}
		}
		calls := float64(rc.answered + rl.answered)
		opsPerS = append(opsPerS, calls/(rc.cpu+rl.cpu).Seconds())
		allocs = append(allocs, float64(rc.mallocs+rl.mallocs)/calls)
		heap = append(heap, float64(rc.liveHeap)/1e6)
	}
	fmt.Fprintf(out, "%s seed %d: %d repetitions of %d×(%d capacity + %d latency) calls, %d set-ups\n",
		w.name, seed, reps, w.sims, w.capOps, w.latOps, len(setups))
	fmt.Fprintf(out, "  capacity p99 %.4f us over %d samples (%d beyond)\n", loaded.value, loaded.samples, loaded.beyond)
	fmt.Fprintf(out, "  latency  p50 %.4f us over %d samples (%d beyond), mean %.4f us\n", p50.value, p50.samples, p50.beyond, mean)
	fmt.Fprintf(out, "  latency  p99 %.4f us over %d samples (%d beyond)\n", p99.value, p99.samples, p99.beyond)

	res.set("vt_ops_per_us", c.opsPerUs(), "ops/us")
	res.set("vt_loaded_p99_us", loaded.value, "us")
	res.set("vt_mean_us", mean, "us")
	res.set("vt_p99_us", p99.value, "us")
	res.set("sim_ops_per_s", median(opsPerS), "calls/s")
	res.set("host_allocs_per_op", median(allocs), "allocs/call")
	res.set("live_heap_mb", median(heap), "MB")
	res.set("setup_s", median(setups), "s")
	res.set("ok_frac", 1-float64(res.Failed)/float64(res.Attempted), "ratio")
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(out, "  %-20s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res
}
