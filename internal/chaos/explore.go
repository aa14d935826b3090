package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hamband/internal/trace"
)

// ExploreOptions configures a randomized exploration run.
type ExploreOptions struct {
	Seed    int64    // base seed; plan i uses Seed+i
	Plans   int      // total plans (default 30)
	Classes []string // round-robined across plans (default counter, orset, bankmap)
	Nodes   int      // cluster size per plan (default 4)
	Ops     int      // workload updates per plan (default 120)
	DumpDir string   // failing plans are written here (default ".")
	Run     Options  // runner options shared by all plans (TraceLimit defaults to DefaultTraceLimit)
}

// DefaultTraceLimit sizes the tracer of a checked run (Explore, hambench
// -plan-json replays and the conformance tests): large enough that
// exploration-scale workloads never drop events (a dropped event makes the
// history unexplainable and is reported as a trace violation).
const DefaultTraceLimit = 1 << 19

func (o ExploreOptions) withDefaults() ExploreOptions {
	if o.Plans <= 0 {
		o.Plans = 30
	}
	if len(o.Classes) == 0 {
		o.Classes = []string{"counter", "orset", "bankmap"}
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Ops <= 0 {
		o.Ops = 120
	}
	if o.DumpDir == "" {
		o.DumpDir = "."
	}
	if o.Run.TraceLimit <= 0 {
		o.Run.TraceLimit = DefaultTraceLimit
	}
	return o
}

// Explore generates and runs o.Plans randomized fault plans, round-robined
// across o.Classes, printing one verdict line per plan to w. Every run is
// traced, so a plan fails when a probe fails or a shard's history does not
// conform. Each failing plan is shrunk to a minimal reproducer and dumped
// as JSON under o.DumpDir for replay with `hambench -exp chaos -plan-json
// FILE`. It returns the number of failing plans and the dumped file paths.
func Explore(w io.Writer, o ExploreOptions) (failures int, dumped []string) {
	o = o.withDefaults()
	fmt.Fprintf(w, "chaos exploration: %d plans, classes %v, %d nodes, %d ops/plan, base seed %d\n",
		o.Plans, o.Classes, o.Nodes, o.Ops, o.Seed)
	for i := 0; i < o.Plans; i++ {
		class := o.Classes[i%len(o.Classes)]
		plan := Generate(class, o.Nodes, o.Ops, o.Seed+int64(i))
		v, err := Run(plan, o.Run)
		if err != nil {
			fmt.Fprintf(w, "plan %3d: %v\n", i, err)
			failures++
			continue
		}
		fmt.Fprintf(w, "plan %3d %s\n", i, v.Summary())
		if v.Passed && v.Conforms() {
			continue
		}
		failures++
		fmt.Fprint(w, FormatViolations(v))
		if !v.Conforms() {
			fmt.Fprintln(w, FormatReports(v))
		}
		min := Shrink(plan, func(cand Plan) bool {
			cv, err := Run(cand, o.Run)
			return err == nil && !(cv.Passed && cv.Conforms())
		})
		if path, err := DumpPlan(o.DumpDir, min); err != nil {
			fmt.Fprintf(w, "  (could not dump failing plan: %v)\n", err)
		} else {
			dumped = append(dumped, path)
			fmt.Fprintf(w, "  shrunk to %d events; replay: hambench -exp chaos -plan-json %s\n",
				len(min.Events), path)
			if tpath, terr := DumpFlightWindow(path, min, o.Run); terr != nil {
				fmt.Fprintf(w, "  (could not dump flight window: %v)\n", terr)
			} else {
				dumped = append(dumped, tpath)
				fmt.Fprintf(w, "  flight-recorder window: %s\n", tpath)
			}
		}
	}
	fmt.Fprintf(w, "chaos exploration: %d/%d plans passed\n", o.Plans-failures, o.Plans)
	return failures, dumped
}

// DumpPlan writes a plan to dir as a replayable JSON artifact named after
// its class and seed, returning the path.
func DumpPlan(dir string, p Plan) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("chaos-fail-%s-seed%d.json", p.Class, p.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := p.WriteJSON(f); err != nil {
		return "", err
	}
	return path, nil
}

// DefaultFlightWindow is the flight-recorder ring size used when dumping
// the trace window of a failing plan: large enough to cover the final few
// batches of call lifecycles and verb traffic, small enough to stay
// readable.
const DefaultFlightWindow = 512

// DumpFlightWindow re-runs a (typically shrunk) failing plan with a
// flight-recorder tracer attached and writes the retained window — the
// last events before the verdict — next to the plan's JSON artifact,
// swapping the .json suffix for .trace. Deterministic replay makes the
// re-run exact: the window shows the same execution that failed. The
// given run options are reused so the failure reproduces under identical
// knobs; only the tracer attachment differs.
func DumpFlightWindow(planPath string, p Plan, run Options) (string, error) {
	run.TraceLimit = 0
	if run.FlightWindow <= 0 {
		run.FlightWindow = DefaultFlightWindow
	}
	v, err := Run(p, run)
	if err != nil {
		return "", err
	}
	path := strings.TrimSuffix(planPath, ".json") + ".trace"
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	fmt.Fprintf(f, "flight-recorder window: last %d events of %s seed %d (%s)\n",
		len(v.Trace.Events()), p.Class, p.Seed, v.Summary())
	trace.FormatWindow(f, v.Trace.Events())
	return path, nil
}
