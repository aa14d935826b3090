// Package conform is the runtime refinement conformance harness: it checks
// that histories produced by the *actual* runtime (internal/core over the
// simulated RDMA fabric) are explainable by the abstract WRDT semantics of
// the paper's Fig. 5 (internal/spec, internal/wrdt). Package rdmawrdt
// model-checks Lemma 3 at the semantics level; this package validates the
// same refinement claim one level down, against implementation traces —
// where, per Enea et al. (replication-aware linearizability) and De Porre
// et al. (VeriFx), replicated-type bugs actually hide.
//
// The checker replays a trace.Tracer history (structured lifecycle events
// recorded by core behind Options.Tracer) on an rdmawrdt.Config, the
// configuration of the paper's Fig. 7: each event fires the matching
// per-process piece of a concrete rule — a Reduce event is REDUCE at the
// origin and an Adopt its summary install elsewhere, a FreeSend is the
// local half of FREE/CONF, an Apply is FREE-APP/CONF-APP and a Query is
// QUERY — and the rule's side conditions become checks:
//
//  1. local permissibility — every applied update was permissible against
//     the replica's replayed pre-state (rdmawrdt.Config.Permissible, the
//     P(σ,c) side condition of rules CALL and PROP; by Lemma 1 this is what
//     preserves integrity);
//  2. conflict-synchronization — conflicting calls of one synchronization
//     group are sequenced by a leader and applied in one total order at
//     all replicas (callConfSync / propConfSync);
//  3. dependency-preservation — no call is applied before the dependencies
//     in its recorded dependency vector (rdmawrdt.Config.Ready, D ≤ A;
//     propDepPres);
//  4. exactly-once — each acknowledged call is applied exactly once per
//     correct replica (at-most-once per identity during the run, and
//     applied-count agreement with the acknowledgment set at quiescence);
//  5. query explainability — every recorded query result equals the
//     abstract query evaluated over the replayed, applied-set-consistent
//     state of the replica that answered it.
//
// Beyond the five, the checker validates call identity (an applied record
// is the call issued under its identity), summarization correctness (a
// Reduce event's post-state must equal pre-state + call — the summary
// really stands for its calls), slot-version monotonicity, replayed
// convergence at quiescence and, in CheckSessions, the client-session
// guarantees. chaos.Run drives it: a run traced with Options.TraceLimit is
// checked shard by shard.
package conform

import (
	"fmt"
	"reflect"
	"strings"

	"hamband/internal/rdmawrdt"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// Violation is one conformance failure, anchored at the event that
// exposed it.
type Violation struct {
	Check  string   `json:"check"` // permissibility | conflict-order | dependency | exactly-once | query | summarization | convergence | identity | trace
	At     sim.Time `json:"at"`
	Node   int      `json:"node"`
	Call   string   `json:"call,omitempty"`
	Detail string   `json:"detail"`
}

func (v Violation) String() string {
	id := v.Call
	if id != "" {
		id = " " + id
	}
	return fmt.Sprintf("[%v] p%d %s:%s %s", sim.Duration(v.At), v.Node, v.Check, id, v.Detail)
}

// maxViolations bounds a report; a broken run violates on nearly every
// event and the first entries carry all the signal.
const maxViolations = 32

// Options configures a conformance check.
type Options struct {
	// Nodes is the cluster size. Zero infers it from the trace.
	Nodes int
	// Quiescent enables the end-of-history checks (exactly-once counts,
	// convergence) that only hold once the run drained.
	Quiescent bool
	// Correct marks nodes eligible for the end-of-history checks (never
	// crashed, not still suspended). Nil means all nodes.
	Correct []bool
	// RequireIssued treats an apply of a call identity with no Issue event
	// in this history as a violation. Sound only for complete traces (a
	// flight-recorder window legitimately starts mid-history); chaos.Run sets it
	// because a call applied in one shard but issued in another is exactly
	// the cross-wiring bug its per-shard check exists to catch.
	RequireIssued bool
}

// Report is the outcome of checking one history.
type Report struct {
	Events     int // trace events consumed
	Calls      int // distinct update calls issued
	Queries    int // query evaluations checked
	Violations []Violation
}

// OK reports whether the history conforms to the abstract semantics.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders the report, one violation per line.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("conform: OK (%d events, %d calls, %d queries)", r.Events, r.Calls, r.Queries)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "conform: %d violations (%d events, %d calls, %d queries)\n",
		len(r.Violations), r.Events, r.Calls, r.Queries)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return strings.TrimRight(b.String(), "\n")
}

// nodeState is what the replay of one replica tracks beside its component
// of the configuration: the evidence for the checks Fig. 7 does not state.
type nodeState struct {
	versions [][]uint32     // slot seqlock versions: [sumGroup][src]
	seen     map[string]int // applies per call identity (at-most-once)
	applySeq [][]string     // [syncGroup] -> call identities in apply order
}

type checker struct {
	an    *spec.Analysis
	cls   *spec.Class
	opts  Options
	rep   *Report
	k     *rdmawrdt.Config // replayed ⟨σ, A, S⟩ of every replica
	nodes []*nodeState

	issued  map[string]spec.Call // identity -> the issued call
	ordered map[string]bool      // identities sequenced by a leader
	acked   map[string]bool      // identities acknowledged OK at the origin
	lastAt  sim.Time             // timestamp of the last consumed event
}

// Check replays a trace against the abstract semantics of an's class and
// reports every way the history fails to conform. The trace must come from
// a single-threaded simulation run: recorded order is the authoritative
// interleaving.
func Check(an *spec.Analysis, events []trace.Event, opts Options) *Report {
	nodes := opts.Nodes
	for _, e := range events {
		if e.Node >= nodes {
			nodes = e.Node + 1
		}
	}
	opts.Nodes = nodes
	c := &checker{
		an: an, cls: an.Class, opts: opts,
		rep:     &Report{Events: len(events)},
		k:       rdmawrdt.New(an, nodes),
		issued:  make(map[string]spec.Call),
		ordered: make(map[string]bool),
		acked:   make(map[string]bool),
	}
	for n := 0; n < nodes; n++ {
		ns := &nodeState{
			seen:     make(map[string]int),
			applySeq: make([][]string, len(an.SyncGroups)),
		}
		for range c.cls.SumGroups {
			ns.versions = append(ns.versions, make([]uint32, nodes))
		}
		c.nodes = append(c.nodes, ns)
	}
	for _, e := range events {
		c.step(e)
	}
	c.finish()
	c.rep.Calls = len(c.issued)
	return c.rep
}

func (c *checker) violate(check string, e trace.Event, detail string) {
	if len(c.rep.Violations) >= maxViolations {
		return
	}
	c.rep.Violations = append(c.rep.Violations, Violation{
		Check: check, At: e.At, Node: e.Node, Call: e.Call, Detail: detail,
	})
}

func (c *checker) checkPermissible(e trace.Event, call spec.Call, context string) {
	if !c.k.Permissible(spec.ProcID(e.Node), call) {
		c.violate("permissibility", e, fmt.Sprintf("%s not permissible against p%d's replayed pre-state (%s)",
			call.Format(c.cls), e.Node, context))
	}
}

func (c *checker) step(e trace.Event) {
	c.lastAt = e.At
	switch e.Kind {
	case trace.Issue:
		rec, ok := e.Data.(trace.CallRecord)
		if !ok {
			c.violate("trace", e, "issue event without a call record")
			return
		}
		c.issued[e.Call] = rec.C

	case trace.Reduce:
		c.stepReduce(e)

	case trace.Adopt:
		c.stepAdopt(e)

	case trace.FreeSend:
		rec, ok := e.Data.(trace.CallRecord)
		if !ok {
			c.violate("trace", e, "free-send event without a call record")
			return
		}
		c.stepApply(e, rec, "free local apply")

	case trace.Order:
		if _, ok := e.Data.(trace.CallRecord); !ok {
			c.violate("trace", e, "order event without a call record")
			return
		}
		c.ordered[e.Call] = true

	case trace.Apply:
		rec, ok := e.Data.(trace.CallRecord)
		if !ok {
			c.violate("trace", e, "apply event without a call record")
			return
		}
		if c.an.Category[rec.C.Method] == spec.CatConflicting && !c.ordered[e.Call] {
			c.violate("conflict-order", e, fmt.Sprintf("conflicting call %s applied at p%d without being sequenced by a leader",
				rec.C.Format(c.cls), e.Node))
		}
		c.stepApply(e, rec, e.Note)

	case trace.Query:
		rec, ok := e.Data.(trace.QueryRecord)
		if !ok {
			c.violate("trace", e, "query event without a query record")
			return
		}
		c.rep.Queries++
		got := c.k.Query(spec.ProcID(e.Node), rec.Method, rec.Args)
		if !reflect.DeepEqual(got, rec.Result) {
			c.violate("query", e, fmt.Sprintf("%s(%s) answered %v at p%d but the replayed state says %v",
				c.cls.Methods[rec.Method].Name, rec.Args, rec.Result, e.Node, got))
		}

	case trace.Complete:
		if rec, ok := e.Data.(trace.AckRecord); ok && rec.OK {
			c.acked[e.Call] = true
		}
	}
}

// stepApply replays one per-call apply (a FreeSend at the origin — the
// local half of FREE or CONF — or a buffered Apply anywhere, FREE-APP or
// CONF-APP): identity, at-most-once, D ≤ A and permissibility, then the
// state transition.
func (c *checker) stepApply(e trace.Event, rec trace.CallRecord, context string) {
	ns := c.nodes[e.Node]
	p := spec.ProcID(e.Node)
	// Provenance: the applied record must be the call that was issued under
	// this identity. A mismatch means the apply loop is consuming somebody
	// else's calls (e.g. two shards' deliveries cross-wired); tags make
	// calls globally unique, so leakage cannot masquerade as a re-issue.
	if want, ok := c.issued[e.Call]; ok {
		if !reflect.DeepEqual(want, rec.C) {
			c.violate("identity", e, fmt.Sprintf("applied record %s does not match the call issued under this identity (%s)",
				rec.C.Format(c.cls), want.Format(c.cls)))
		}
	} else if c.opts.RequireIssued {
		c.violate("identity", e, fmt.Sprintf("call %s applied at p%d but never issued in this history (%s)",
			rec.C.Format(c.cls), e.Node, context))
	}
	ns.seen[e.Call]++
	if n := ns.seen[e.Call]; n > 1 {
		c.violate("exactly-once", e, fmt.Sprintf("call %s applied %d times at p%d",
			rec.C.Format(c.cls), n, e.Node))
	}
	if !c.k.Ready(p, rdmawrdt.Entry{C: rec.C, D: rec.D}) {
		c.violate("dependency", e, fmt.Sprintf("%s applied at p%d before its recorded dependencies (d=%v)",
			rec.C.Format(c.cls), e.Node, rec.D))
	}
	c.checkPermissible(e, rec.C, context)
	c.k.Apply(p, rec.C)
	if g := c.an.SyncGroupOf[rec.C.Method]; g != spec.NoGroup {
		ns.applySeq[g] = append(ns.applySeq[g], e.Call)
	}
}

// stepReduce replays REDUCE at the origin: a reducible call folding into
// the origin's own summary slot. Checks permissibility against the
// pre-state, version monotonicity, and summarization correctness
// (post-state = pre-state + call).
func (c *checker) stepReduce(e trace.Event) {
	rec, ok := e.Data.(trace.SlotRecord)
	if !ok || rec.C == nil {
		c.violate("trace", e, "reduce event without a slot record")
		return
	}
	if !c.hasSlot(rec) {
		c.violate("trace", e, fmt.Sprintf("reduce names slot g%d/p%d which the class does not have", rec.Group, rec.Src))
		return
	}
	p := spec.ProcID(e.Node)
	want := c.k.After(p, *rec.C)
	c.checkPermissible(e, *rec.C, "reduce")
	if v := c.nodes[e.Node].versions[rec.Group][rec.Src]; rec.Version <= v {
		c.violate("trace", e, fmt.Sprintf("slot g%d/p%d version regressed: v%d after v%d",
			rec.Group, rec.Src, rec.Version, v))
	}
	c.install(e, rec)

	if got := c.k.CurrentState(p); !got.Equal(want) {
		c.violate("summarization", e, fmt.Sprintf("summary slot g%d/p%d v%d does not stand for its calls: post-state differs from pre-state + %s",
			rec.Group, rec.Src, rec.Version, rec.C.Format(c.cls)))
	}
	ns := c.nodes[e.Node]
	ns.seen[e.Call]++
	if n := ns.seen[e.Call]; n > 1 {
		c.violate("exactly-once", e, fmt.Sprintf("call %s reduced %d times at p%d", rec.C.Format(c.cls), n, e.Node))
	}
}

// stepAdopt replays a remotely written summary slot being adopted — REDUCE's
// install at a non-origin replica: version monotonicity, then the slot
// swap, then integrity of the post-state (by Lemma 1 the per-call
// permissibility of summarized calls is equivalent to invariant
// preservation on reachable states).
func (c *checker) stepAdopt(e trace.Event) {
	rec, ok := e.Data.(trace.SlotRecord)
	if !ok {
		c.violate("trace", e, "adopt event without a slot record")
		return
	}
	if !c.hasSlot(rec) {
		c.violate("trace", e, fmt.Sprintf("adopt names slot g%d/p%d which the class does not have", rec.Group, rec.Src))
		return
	}
	if v := c.nodes[e.Node].versions[rec.Group][rec.Src]; rec.Version <= v {
		c.violate("trace", e, fmt.Sprintf("slot g%d/p%d version regressed on adopt: v%d after v%d",
			rec.Group, rec.Src, rec.Version, v))
	}
	c.install(e, rec)
	if !c.cls.TrivialInvariant && !c.cls.Invariant(c.k.CurrentState(spec.ProcID(e.Node))) {
		c.violate("permissibility", e, fmt.Sprintf("invariant violated at p%d after adopting slot g%d/p%d v%d",
			e.Node, rec.Group, rec.Src, rec.Version))
	}
}

// hasSlot reports whether the class has the summary slot rec names.
func (c *checker) hasSlot(rec trace.SlotRecord) bool {
	return rec.Group >= 0 && rec.Group < len(c.cls.SumGroups) && int(rec.Src) < c.k.NumProcs()
}

// install records the slot's version and installs its contents in the
// configuration (rdmawrdt.Config.Install: applied counts only ever grow,
// so stale reads never regress them).
func (c *checker) install(e trace.Event, rec trace.SlotRecord) {
	c.nodes[e.Node].versions[rec.Group][rec.Src] = rec.Version
	c.k.Install(spec.ProcID(e.Node), rec.Group, rec.Src, rec.Sum, rec.Counts)
}

// correct reports whether node n takes part in the end-of-history checks.
func (c *checker) correct(n int) bool {
	return c.opts.Correct == nil || (n < len(c.opts.Correct) && c.opts.Correct[n])
}

// finish runs the whole-history checks: pairwise conflict-order agreement,
// and — at quiescence — exactly-once applied counts and convergence.
func (c *checker) finish() {
	// Whole-history violations are anchored at the last event's time.
	end := trace.Event{At: c.lastAt, Node: -1}

	// Conflict-synchronization: for every synchronization group, any two
	// correct replicas must agree on the relative order of the conflicting
	// calls they both applied (one total order, observed as consistent
	// subsequences).
	for g := range c.an.SyncGroups {
		for a := 0; a < len(c.nodes); a++ {
			if !c.correct(a) {
				continue
			}
			for b := a + 1; b < len(c.nodes); b++ {
				if !c.correct(b) {
					continue
				}
				if id1, id2, ok := commonOrderDiverges(c.nodes[a].applySeq[g], c.nodes[b].applySeq[g]); ok {
					c.violate("conflict-order", end, fmt.Sprintf(
						"sync group %d: p%d applied %s before %s but p%d applied them in the opposite order",
						g, a, id1, id2, b))
				}
			}
		}
	}

	if !c.opts.Quiescent {
		return
	}

	// Exactly-once at quiescence: every correct replica's applied count for
	// (origin, method) covers every acknowledged call and never exceeds the
	// origin's own count (the origin is authoritative for its calls; it may
	// exceed the acked count, e.g. a local apply whose broadcast failed).
	ackedCount := make([][]uint32, len(c.nodes))
	for n := range ackedCount {
		ackedCount[n] = make([]uint32, len(c.cls.Methods))
	}
	for id := range c.acked {
		call, ok := c.issued[id]
		if !ok || int(call.Proc) >= len(c.nodes) {
			continue
		}
		ackedCount[call.Proc][call.Method]++
	}
	for n := range c.nodes {
		if !c.correct(n) {
			continue
		}
		for o := range c.nodes {
			if !c.correct(o) {
				continue
			}
			for _, u := range c.cls.UpdateMethods() {
				got := c.k.Procs[n].A.Get(spec.ProcID(o), u)
				if want := ackedCount[o][u]; got < want {
					c.violate("exactly-once", end, fmt.Sprintf(
						"p%d applied %d of %d acked %s calls from p%d at quiescence",
						n, got, want, c.cls.Methods[u].Name, o))
				}
				if origin := c.k.Procs[o].A.Get(spec.ProcID(o), u); got > origin {
					c.violate("exactly-once", end, fmt.Sprintf(
						"p%d applied %d %s calls from p%d but the origin itself applied only %d",
						n, got, c.cls.Methods[u].Name, o, origin))
				}
			}
		}
	}

	// Convergence of the replayed states: if the histories explain a
	// drained run, the abstract semantics must drive all correct replicas
	// to one state (Lemma 2 at the trace level).
	ref, refState := -1, spec.State(nil)
	for n := range c.nodes {
		if !c.correct(n) {
			continue
		}
		st := c.k.CurrentState(spec.ProcID(n))
		if refState == nil {
			ref, refState = n, st
			continue
		}
		if !refState.Equal(st) {
			c.violate("convergence", end, fmt.Sprintf(
				"replayed states of p%d and p%d differ at quiescence", ref, n))
		}
	}
}

// commonOrderDiverges reports the first pair of call identities that two
// apply sequences order differently, considering only identities present in
// both.
func commonOrderDiverges(a, b []string) (string, string, bool) {
	inA := make(map[string]bool, len(a))
	for _, id := range a {
		inA[id] = true
	}
	inB := make(map[string]bool, len(b))
	for _, id := range b {
		inB[id] = true
	}
	var fa, fb []string
	for _, id := range a {
		if inB[id] {
			fa = append(fa, id)
		}
	}
	for _, id := range b {
		if inA[id] {
			fb = append(fb, id)
		}
	}
	for i := range fa {
		if i < len(fb) && fa[i] != fb[i] {
			return fa[i], fb[i], true
		}
	}
	return "", "", false
}
