package conform

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

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
		// Ablation arm: the legacy full-state path must stay conforming.
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
			r1, err := Run(p, chaos.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !r1.Verdict.Passed {
				t.Fatalf("chaos probes failed:\n%s", chaos.FormatViolations(r1.Verdict))
			}
			if !r1.Conforms() {
				t.Fatalf("history does not conform:\n%s", r1)
			}
			rep := onlyReport(t, r1)
			if rep.Queries == 0 {
				t.Fatal("no query events checked; the corpus must exercise query explainability")
			}
			if rep.Calls == 0 {
				t.Fatal("no calls replayed; the trace is missing issue events")
			}
			r2, err := Run(p, chaos.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Verdict.TraceHash != r2.Verdict.TraceHash {
				t.Fatalf("nondeterministic run: trace hash %016x then %016x",
					r1.Verdict.TraceHash, r2.Verdict.TraceHash)
			}
		})
	}
}

// onlyReport returns the report of a single-shard run.
func onlyReport(t *testing.T, res *Result) *Report {
	t.Helper()
	if len(res.Reports) != 1 {
		t.Fatalf("checked %d shards, want 1: %v", len(res.Reports), res.Keys())
	}
	return res.Reports[res.Keys()[0]]
}

// TestCorpusConforms replays every committed chaos corpus plan — single-
// and multi-shard alike — through the conformance harness: every shard's
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
			res, err := Run(p, chaos.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want := max(p.ShardMix, 1); len(res.Reports) != want {
				t.Fatalf("checked %d shards, want %d: %v", len(res.Reports), want, res.Keys())
			}
			if !res.Conforms() {
				t.Fatalf("corpus plan does not conform:\n%s", res)
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
	var min chaos.Plan
	found := false
	for seed := int64(300); seed < 340 && !found; seed++ {
		p := chaos.Plan{Class: "bankmap", Nodes: 3, Ops: 40, Seed: seed, MutateApplyOrder: true}
		res, err := Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Conforms() {
			if min = Shrink(p, opts); min.Ops <= 8 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no seed in [300,340) shrank the mutated apply order to <= 8 calls")
	}

	res, err := Run(min, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conforms() {
		t.Fatalf("shrunk plan (seed %d, %d ops) no longer fails", min.Seed, min.Ops)
	}
	kinds := make(map[string]bool)
	for _, v := range res.Violations() {
		kinds[v.Check] = true
	}
	if !kinds["dependency"] && !kinds["permissibility"] && !kinds["conflict-order"] {
		t.Errorf("expected a dependency, permissibility or conflict-order violation, got:\n%s", res)
	}
	t.Logf("caught with %d ops, %d events:\n%s", min.Ops, len(min.Events), res)
}

// TestFlightWindowDumpedForFailure pins the debugging artifact chain: a
// mutated plan that fails conformance dumps a plan JSON plus a
// flight-recorder window of the last events next to it, the same pair
// Explore writes for real corpus failures. The window must be bounded by
// the ring size and carry the event lines a post-mortem needs.
func TestFlightWindowDumpedForFailure(t *testing.T) {
	opts := chaos.Options{BatchSize: 8, IssuePeriod: 20 * sim.Microsecond}
	p := chaos.Plan{Class: "bankmap", Nodes: 3, Ops: 40, Seed: 300, MutateApplyOrder: true}
	res, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conforms() {
		t.Fatal("mutated plan unexpectedly conforms; flight dump path not exercised")
	}

	dir := t.TempDir()
	name, err := DumpPlan(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	tname, err := chaos.DumpFlightWindow(name, p, opts)
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
	r1, err := Run(p, chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Verdict.TraceHash != r2.Verdict.TraceHash {
		t.Fatalf("trace hash %016x then %016x", r1.Verdict.TraceHash, r2.Verdict.TraceHash)
	}
	if len(r1.Violations()) != len(r2.Violations()) {
		t.Fatalf("violation count %d then %d", len(r1.Violations()), len(r2.Violations()))
	}
}

// conformingTrace runs one clean plan and returns its analysis, events and
// check options — raw material for tamper tests.
func conformingTrace(t *testing.T, class string, seed int64) (*spec.Analysis, []trace.Event, Options) {
	t.Helper()
	p := chaos.Plan{Class: class, Nodes: 3, Ops: 40, Seed: seed}
	res, err := Run(p, chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforms() {
		t.Fatalf("baseline does not conform:\n%s", res)
	}
	cls, err := chaos.Class(class)
	if err != nil {
		t.Fatal(err)
	}
	events := append([]trace.Event(nil), res.Verdict.Trace.Events()...)
	return spec.MustAnalyze(cls), events, Options{Nodes: p.Nodes, Quiescent: res.Verdict.Drained, Correct: res.Verdict.Correct}
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
	rep := Check(an, events, opts)
	if rep.OK() {
		t.Fatal("tampered query result not flagged")
	}
	if rep.Violations[0].Check != "query" {
		t.Fatalf("want a query violation first, got:\n%s", rep)
	}
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
	rep := Check(an, events, opts)
	if rep.OK() {
		t.Fatal("duplicated apply not flagged")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Check == "exactly-once" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want an exactly-once violation, got:\n%s", rep)
	}
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
	rep := Check(an, events, opts)
	if rep.OK() {
		t.Fatal("dropped apply not flagged")
	}
}

// TestExploreCorpusStyle drives the Explore sweep over a small clean
// corpus; nothing should fail and nothing should be dumped.
func TestExploreCorpusStyle(t *testing.T) {
	var out strings.Builder
	failures, dumped := Explore(&out, ExploreOptions{
		Seed: 220, Seeds: 4, Nodes: 3, Ops: 40, DumpDir: t.TempDir(),
	})
	if failures != 0 {
		t.Fatalf("clean sweep reported %d failures:\n%s", failures, out.String())
	}
	if len(dumped) != 0 {
		t.Fatalf("clean sweep dumped %v", dumped)
	}
	if !strings.Contains(out.String(), "CONFORMS") {
		t.Fatalf("missing CONFORMS lines:\n%s", out.String())
	}
}
