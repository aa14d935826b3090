package conform_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/conform"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// tracedOptions turns on what a conformance run needs: a tracer large
// enough that no event is dropped (chaos.Run then checks every shard's
// history) and, unless set, one query every other batch so check 5 has
// material.
func tracedOptions(opts chaos.Options) chaos.Options {
	opts.TraceLimit = chaos.DefaultTraceLimit
	if opts.QueryMix <= 0 {
		opts.QueryMix = 2
	}
	return opts
}

// traced runs p under tracedOptions(opts).
func traced(t *testing.T, p chaos.Plan, opts chaos.Options) *chaos.Verdict {
	t.Helper()
	v, err := chaos.Run(p, tracedOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// violationKinds collects the checks every shard's report flagged.
func violationKinds(v *chaos.Verdict) map[string]bool {
	kinds := make(map[string]bool)
	for _, rep := range v.Reports {
		for _, viol := range rep.Violations {
			kinds[viol.Check] = true
		}
	}
	return kinds
}

// corpusPlans is the fixed-seed conformance corpus `make conform` gates on:
// three fault-free plans and three generated fault plans, rotating through
// the counter (reducible), orset (irreducible conflict-free) and bankmap
// (mixed categories, conflicting withdraw, dependent deposit) classes.
func corpusPlans() []chaos.Plan {
	// δ-stress arm: a generated fault plan with a tiny anchor interval, so
	// the anchor/δ-log interleaving (re-anchors, gap fetches, torn parks)
	// is itself replayed through the abstract semantics.
	deltaFaulty := chaos.Generate("bankmap", 4, 60, 207)
	deltaFaulty.AnchorInterval = 2
	return []chaos.Plan{
		{Class: "counter", Nodes: 4, Ops: 80, Seed: 201},
		{Class: "orset", Nodes: 4, Ops: 80, Seed: 202},
		{Class: "bankmap", Nodes: 4, Ops: 80, Seed: 203},
		chaos.Generate("counter", 4, 80, 204),
		chaos.Generate("orset", 4, 60, 205),
		chaos.Generate("bankmap", 4, 60, 206),
		deltaFaulty,
		// Ablation arm: full-state mode (no δ-log) must stay conforming.
		{Class: "counter", Nodes: 4, Ops: 80, Seed: 208, FullSummaries: true},
	}
}

// TestConformCorpus runs the fixed-seed corpus: every history must conform,
// the chaos probes must pass, queries must actually be checked, and a
// second run of the same plan must produce the identical trace hash.
func TestConformCorpus(t *testing.T) {
	for _, p := range corpusPlans() {
		p := p
		t.Run(fmt.Sprintf("%s-seed%d", p.Class, p.Seed), func(t *testing.T) {
			v1 := traced(t, p, chaos.Options{})
			if !v1.Passed {
				t.Fatalf("chaos probes failed:\n%s", chaos.FormatViolations(v1))
			}
			if !v1.Conforms() {
				t.Fatalf("history does not conform:\n%s", chaos.FormatReports(v1))
			}
			rep := onlyReport(t, v1)
			if rep.Queries == 0 {
				t.Fatal("no query events checked; the corpus must exercise query explainability")
			}
			if rep.Calls == 0 {
				t.Fatal("no calls replayed; the trace is missing issue events")
			}
			v2 := traced(t, p, chaos.Options{})
			if v1.TraceHash != v2.TraceHash {
				t.Fatalf("nondeterministic run: trace hash %016x then %016x", v1.TraceHash, v2.TraceHash)
			}
		})
	}
}

// onlyReport returns the report of a single-shard run.
func onlyReport(t *testing.T, v *chaos.Verdict) *conform.Report {
	t.Helper()
	if len(v.Reports) != 1 {
		t.Fatalf("checked %d shards, want 1:\n%s", len(v.Reports), chaos.FormatReports(v))
	}
	for _, rep := range v.Reports {
		return rep
	}
	return nil
}

// TestCorpusConforms replays every committed chaos corpus plan — single-
// and multi-shard alike — through the conformance check: every shard's
// history must conform.
func TestCorpusConforms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "chaos", "testdata", "chaos", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no chaos corpus plans found")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			p, err := chaos.ReadPlan(f)
			f.Close()
			if err != nil {
				t.Fatalf("invalid corpus plan: %v", err)
			}
			v := traced(t, p, chaos.Options{})
			if want := max(p.ShardMix, 1); len(v.Reports) != want {
				t.Fatalf("checked %d shards, want %d:\n%s", len(v.Reports), want, chaos.FormatReports(v))
			}
			if !v.Conforms() {
				t.Fatalf("corpus plan does not conform:\n%s", chaos.FormatReports(v))
			}
		})
	}
}

// TestMutatedApplyOrderCaught is the harness's own mutation test: with the
// injected apply-order bug (newest-first buffer drain, dependency gate
// skipped) the checker must flag the history, and shrinking must reduce the
// counterexample to at most 8 calls while still failing.
func TestMutatedApplyOrderCaught(t *testing.T) {
	// A dense workload (whole batch in flight at once) keeps the buffers
	// populated, so the order bug manifests with few calls — which is what
	// lets shrinking reach a small counterexample.
	opts := chaos.Options{BatchSize: 8, IssuePeriod: 20 * sim.Microsecond}
	fails := func(q chaos.Plan) bool {
		v, err := chaos.Run(q, tracedOptions(opts))
		return err == nil && !v.Conforms()
	}
	var min chaos.Plan
	found := false
	for seed := int64(300); seed < 340 && !found; seed++ {
		p := chaos.Plan{Class: "bankmap", Nodes: 3, Ops: 40, Seed: seed, MutateApplyOrder: true}
		if fails(p) {
			if min = chaos.Shrink(p, fails); min.Ops <= 8 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no seed in [300,340) shrank the mutated apply order to <= 8 calls")
	}

	v := traced(t, min, opts)
	if v.Conforms() {
		t.Fatalf("shrunk plan (seed %d, %d ops) no longer fails", min.Seed, min.Ops)
	}
	kinds := violationKinds(v)
	if !kinds["dependency"] && !kinds["permissibility"] && !kinds["conflict-order"] {
		t.Errorf("expected a dependency, permissibility or conflict-order violation, got:\n%s", chaos.FormatReports(v))
	}
	t.Logf("caught with %d ops, %d events:\n%s", min.Ops, len(min.Events), chaos.FormatReports(v))
}

// TestFlightWindowDumpedForFailure pins the debugging artifact chain: a
// mutated plan that fails conformance dumps a plan JSON plus a
// flight-recorder window of the last events next to it, the same pair
// chaos.Explore writes for real failures. The window must be bounded by
// the ring size and carry the event lines a post-mortem needs.
func TestFlightWindowDumpedForFailure(t *testing.T) {
	opts := chaos.Options{BatchSize: 8, IssuePeriod: 20 * sim.Microsecond}
	p := chaos.Plan{Class: "bankmap", Nodes: 3, Ops: 40, Seed: 300, MutateApplyOrder: true}
	if traced(t, p, opts).Conforms() {
		t.Fatal("mutated plan unexpectedly conforms; flight dump path not exercised")
	}

	dir := t.TempDir()
	name, err := chaos.DumpPlan(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	tname, err := chaos.DumpFlightWindow(name, p, tracedOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSuffix(name, ".json") + ".trace"; tname != want {
		t.Errorf("trace dumped to %s, want %s (next to the plan)", tname, want)
	}
	data, err := os.ReadFile(tname)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "flight-recorder window") {
		t.Errorf("dump missing header:\n%s", out)
	}
	lines := strings.Count(strings.TrimRight(out, "\n"), "\n")
	if lines < 2 {
		t.Errorf("dump has only %d lines, expected a window of events", lines)
	}
	if lines > chaos.DefaultFlightWindow+1 {
		t.Errorf("dump has %d event lines, ring should cap it at %d", lines, chaos.DefaultFlightWindow)
	}
}

// TestMutatedRunsAreDeterministic pins that even non-conforming runs
// replay bit-identically, so dumped counterexamples reproduce.
func TestMutatedRunsAreDeterministic(t *testing.T) {
	p := chaos.Plan{Class: "bankmap", Nodes: 3, Ops: 40, Seed: 301, MutateApplyOrder: true}
	v1 := traced(t, p, chaos.Options{})
	v2 := traced(t, p, chaos.Options{})
	if v1.TraceHash != v2.TraceHash {
		t.Fatalf("trace hash %016x then %016x", v1.TraceHash, v2.TraceHash)
	}
	if r1, r2 := chaos.FormatReports(v1), chaos.FormatReports(v2); r1 != r2 {
		t.Fatalf("reports differ:\n%s\nthen\n%s", r1, r2)
	}
}

// conformingTrace runs one clean plan and returns its analysis, events and
// check options — raw material for tamper tests.
func conformingTrace(t *testing.T, class string, seed int64) (*spec.Analysis, []trace.Event, conform.Options) {
	t.Helper()
	p := chaos.Plan{Class: class, Nodes: 3, Ops: 40, Seed: seed}
	v := traced(t, p, chaos.Options{})
	if !v.Conforms() {
		t.Fatalf("baseline does not conform:\n%s", chaos.FormatReports(v))
	}
	cls, err := chaos.Class(class)
	if err != nil {
		t.Fatal(err)
	}
	events := append([]trace.Event(nil), v.Trace.Events()...)
	return spec.MustAnalyze(cls), events, conform.Options{Nodes: p.Nodes, Quiescent: v.Drained, Correct: v.Correct}
}

// wantViolation fails the test unless rep flags check with a detail
// containing detail.
func wantViolation(t *testing.T, rep *conform.Report, check, detail string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Check == check && strings.Contains(v.Detail, detail) {
			return
		}
	}
	t.Fatalf("want a %s violation mentioning %q, got:\n%s", check, detail, rep)
}

// TestTamperedQueryResultFlagged corrupts one recorded query answer; the
// checker must report a query violation.
func TestTamperedQueryResultFlagged(t *testing.T) {
	an, events, opts := conformingTrace(t, "counter", 211)
	tampered := false
	for i := range events {
		if q, ok := events[i].Data.(trace.QueryRecord); ok {
			if v, ok := q.Result.(int64); ok {
				q.Result = v + 1000
				events[i].Data = q
				tampered = true
				break
			}
		}
	}
	if !tampered {
		t.Fatal("trace carries no integer query result to tamper with")
	}
	rep := conform.Check(an, events, opts)
	if rep.OK() {
		t.Fatal("tampered query result not flagged")
	}
	if rep.Violations[0].Check != "query" {
		t.Fatalf("want a query violation first, got:\n%s", rep)
	}
}

// TestTamperedSummaryFlagged corrupts the summary one Reduce event
// installs; the slot no longer stands for its calls.
func TestTamperedSummaryFlagged(t *testing.T) {
	an, events, opts := conformingTrace(t, "counter", 214)
	tampered := false
	for i, e := range events {
		if rec, ok := e.Data.(trace.SlotRecord); ok && e.Kind == trace.Reduce {
			rec.Sum = spec.Call{Method: rec.Sum.Method, Proc: rec.Sum.Proc, Args: spec.ArgsI(rec.Sum.Args.I[0] + 1000)}
			events[i].Data = rec
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("trace carries no reduce event to tamper with")
	}
	rep := conform.Check(an, events, opts)
	if rep.OK() || rep.Violations[0].Check != "summarization" {
		t.Fatalf("want a summarization violation first, got:\n%s", rep)
	}
}

// TestRewoundSlotVersionFlagged rewinds the version one Adopt event
// records; slot versions must only grow.
func TestRewoundSlotVersionFlagged(t *testing.T) {
	an, events, opts := conformingTrace(t, "counter", 215)
	tampered := false
	for i, e := range events {
		if rec, ok := e.Data.(trace.SlotRecord); ok && e.Kind == trace.Adopt {
			rec.Version = 0
			events[i].Data = rec
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("trace carries no adopt event to tamper with")
	}
	wantViolation(t, conform.Check(an, events, opts), "trace", "version regressed")
}

// TestInflatedDependencyFlagged raises every entry of one remote apply's
// dependency record above anything applied: D ≤ A fails.
func TestInflatedDependencyFlagged(t *testing.T) {
	an, events, opts := conformingTrace(t, "bankmap", 216)
	tampered := false
	for i, e := range events {
		if rec, ok := e.Data.(trace.CallRecord); ok && e.Kind == trace.Apply && len(rec.D) > 0 {
			d := make(spec.DepVec, len(rec.D))
			for j := range d {
				d[j] = rec.D[j] + 1000
			}
			rec.D = d
			events[i].Data = rec
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("trace carries no apply event with a dependency record to tamper with")
	}
	wantViolation(t, conform.Check(an, events, opts), "dependency", "before its recorded dependencies")
}

// TestDuplicatedApplyFlagged duplicates one apply event; the checker must
// report it as a double delivery.
func TestDuplicatedApplyFlagged(t *testing.T) {
	an, events, opts := conformingTrace(t, "orset", 212)
	dup := -1
	for i, e := range events {
		if e.Kind == trace.Apply {
			dup = i
			break
		}
	}
	if dup < 0 {
		t.Fatal("trace carries no apply event to duplicate")
	}
	events = append(events[:dup+1], append([]trace.Event{events[dup]}, events[dup+1:]...)...)
	wantViolation(t, conform.Check(an, events, opts), "exactly-once", "applied 2 times")
}

// TestDroppedApplyFlagged removes one remote apply event; at quiescence the
// checker must see the lost update.
func TestDroppedApplyFlagged(t *testing.T) {
	an, events, opts := conformingTrace(t, "orset", 213)
	drop := -1
	for i, e := range events {
		if e.Kind == trace.Apply {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatal("trace carries no apply event to drop")
	}
	events = append(events[:drop], events[drop+1:]...)
	if rep := conform.Check(an, events, opts); rep.OK() {
		t.Fatal("dropped apply not flagged")
	}
}
