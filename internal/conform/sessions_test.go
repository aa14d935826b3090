package conform

import (
	"strings"
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

// sessEvent builds one session trace event for the unit tests.
func sessEvent(at sim.Time, rec trace.SessionRecord) trace.Event {
	return trace.Event{At: at, Node: rec.Node, Kind: trace.Session, Data: rec}
}

// TestSessionCheckerUnit drives the checker with hand-built histories: a
// conforming session passes, and each guarantee violation is detected and
// named.
func TestSessionCheckerUnit(t *testing.T) {
	ok := []trace.Event{
		sessEvent(1, trace.SessionRecord{S: 0, Op: "write", Node: 0, Watermark: 1, View: []uint64{1, 0}}),
		sessEvent(2, trace.SessionRecord{S: 0, Op: "read", Node: 0, View: []uint64{1, 2}}),
		sessEvent(3, trace.SessionRecord{S: 0, Op: "switch", Node: 1}),
		sessEvent(4, trace.SessionRecord{S: 0, Op: "read", Node: 1, View: []uint64{1, 3}}),
		sessEvent(5, trace.SessionRecord{S: 0, Op: "write", Node: 1, Watermark: 4, View: []uint64{1, 4}}),
	}
	if vs := CheckSessions(ok); len(vs) != 0 {
		t.Fatalf("conforming session flagged: %v", vs)
	}

	cases := []struct {
		check string
		evs   []trace.Event
	}{
		{"session-ryw", []trace.Event{
			sessEvent(1, trace.SessionRecord{S: 0, Op: "write", Node: 0, Watermark: 5, View: []uint64{5, 0}}),
			sessEvent(2, trace.SessionRecord{S: 0, Op: "read", Node: 1, View: []uint64{4, 0}}),
		}},
		{"session-mr", []trace.Event{
			sessEvent(1, trace.SessionRecord{S: 0, Op: "read", Node: 0, View: []uint64{3, 3}}),
			sessEvent(2, trace.SessionRecord{S: 0, Op: "read", Node: 1, View: []uint64{4, 2}}),
		}},
		{"session-wfr", []trace.Event{
			sessEvent(1, trace.SessionRecord{S: 0, Op: "read", Node: 0, View: []uint64{3, 3}}),
			sessEvent(2, trace.SessionRecord{S: 0, Op: "write", Node: 1, Watermark: 1, View: []uint64{3, 1}}),
		}},
	}
	for _, c := range cases {
		vs := CheckSessions(c.evs)
		if len(vs) == 0 {
			t.Fatalf("%s violation not detected", c.check)
		}
		found := false
		for _, v := range vs {
			if v.Check == c.check {
				found = true
			}
		}
		if !found {
			t.Fatalf("want a %s violation, got %v", c.check, vs)
		}
	}
}

// TestSessionsConformAcrossReconfig runs the membership round-trip plan
// with live sessions through the full conformance harness: the
// state-machine checks and the session checks must both pass, and the
// sessions must actually have produced evidence spanning both epochs.
func TestSessionsConformAcrossReconfig(t *testing.T) {
	p := chaos.Plan{
		Class: "counter", Nodes: 4, Ops: 120, Seed: 51, Sessions: 2,
		Events: []chaos.Event{
			{At: sim.Time(300 * sim.Microsecond), Kind: chaos.KindLeave, Node: 3},
			{At: sim.Time(900 * sim.Microsecond), Kind: chaos.KindJoin, Node: 3},
		},
	}
	res, err := Run(p, chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conforms() {
		t.Fatalf("reconfig session run does not conform:\n%s", res)
	}
	epochs := make(map[uint32]bool)
	reads := 0
	for _, evs := range SessionEvents(res.Verdict.Trace.Events()) {
		for _, e := range evs {
			rec := e.Data.(trace.SessionRecord)
			epochs[rec.Epoch] = true
			if rec.Op == "read" {
				reads++
			}
		}
	}
	if reads == 0 {
		t.Fatal("sessions recorded no reads — the checker had nothing to verify")
	}
	if len(epochs) < 2 {
		t.Fatalf("session evidence covers epochs %v, want operations on both sides of the reconfiguration", epochs)
	}
}

// TestStaleReadMutationCaught is the satellite mutation control: the same
// plan with the stale-failover-cache bug injected must be caught by the
// session checker, and the violating session must shrink to a handful of
// events — the offending write/read pair plus little else.
func TestStaleReadMutationCaught(t *testing.T) {
	p := chaos.Plan{
		Class: "counter", Nodes: 4, Ops: 120, Seed: 51, Sessions: 2,
		MutateStaleReads: true,
		Events: []chaos.Event{
			{At: sim.Time(300 * sim.Microsecond), Kind: chaos.KindLeave, Node: 3},
			{At: sim.Time(900 * sim.Microsecond), Kind: chaos.KindJoin, Node: 3},
		},
	}
	res, err := Run(p, chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conforms() {
		t.Fatal("stale-read mutation not caught — the session checker is blind")
	}
	sessionViolation := false
	for _, v := range res.Violations() {
		if strings.HasPrefix(v.Check, "session-") {
			sessionViolation = true
		}
	}
	if !sessionViolation {
		t.Fatalf("mutation flagged, but not by a session check:\n%s", res)
	}

	// Shrink the violating session's history to a minimal counterexample.
	shrunk := 0
	for _, evs := range SessionEvents(res.Verdict.Trace.Events()) {
		if len(checkSession(evs)) == 0 {
			continue
		}
		min := ShrinkSession(evs)
		if len(min) == 0 || len(checkSession(min)) == 0 {
			t.Fatal("shrunk session no longer violates")
		}
		if len(min) > 6 {
			t.Fatalf("shrunk session has %d events, want <= 6", len(min))
		}
		shrunk++
	}
	if shrunk == 0 {
		t.Fatal("no violating session found to shrink")
	}
}
