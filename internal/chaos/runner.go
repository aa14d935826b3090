package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hamband/internal/conform"
	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/health"
	"hamband/internal/heartbeat"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
	"hamband/internal/trace"
)

// Options tunes the nemesis runner. The zero value is a complete, sensible
// configuration.
type Options struct {
	IssuePeriod   sim.Duration // workload batch period (default 50 µs)
	BatchSize     int          // updates per batch (default 4)
	ProbePeriod   sim.Duration // integrity probe period (default 100 µs)
	DrainDeadline sim.Duration // post-heal quiescence budget (default 50 ms)

	// EnableMetrics attaches a metrics registry to the run; the registry
	// is returned on the verdict for inspection (chaos.* counters plus the
	// full rdma/core instrumentation).
	EnableMetrics bool

	// TraceLimit, when positive, attaches a lifecycle tracer holding up to
	// that many events; the tracer is returned on the verdict, and every
	// shard's history is replayed through conform.Check into
	// Verdict.Reports. Tracing costs no virtual time and the check runs
	// after the trace hash is sealed, so trace hashes are unchanged by it.
	TraceLimit int

	// FlightWindow, when positive, attaches a flight-recorder tracer
	// instead: a ring retaining only the newest FlightWindow events, so the
	// moments leading up to a failure survive arbitrarily long runs at a
	// fixed memory bound. Takes precedence over TraceLimit. Like TraceLimit
	// it costs no virtual time, so trace hashes are unchanged.
	FlightWindow int

	// QueryMix, when positive, issues one random query every QueryMix
	// workload batches, alternating plain and recency-aware (InvokeFresh)
	// evaluation, so traced runs carry query results for the conformance
	// check to explain; query errors during faults are not violations.
	QueryMix int
}

func (o Options) withDefaults() Options {
	if o.IssuePeriod <= 0 {
		o.IssuePeriod = 50 * sim.Microsecond
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 4
	}
	if o.ProbePeriod <= 0 {
		o.ProbePeriod = 100 * sim.Microsecond
	}
	if o.DrainDeadline <= 0 {
		o.DrainDeadline = 50 * sim.Millisecond
	}
	return o
}

// Violation is one probe failure, anchored at the virtual time it was
// detected.
type Violation struct {
	At     sim.Time `json:"at"`
	Probe  string   `json:"probe"` // quiescence | convergence | integrity | lost-update | duplicate | invoke-error
	Detail string   `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", sim.Duration(v.At), v.Probe, v.Detail)
}

// maxViolations bounds the report; a broken run can violate on every probe
// tick and the first few entries carry all the signal.
const maxViolations = 32

// Verdict is the outcome of running one plan.
type Verdict struct {
	Plan       Plan
	Passed     bool
	Violations []Violation
	Drained    bool // reached quiescence within the drain budget

	Issued   int // update calls issued
	Acked    int // calls acknowledged to the client
	Rejected int // calls rejected as impermissible (not failures)

	Makespan  sim.Duration // virtual time from start to verdict
	TraceHash uint64       // FNV-1a over the virtual-time trace; equal seeds ⇒ equal hashes

	Metrics *metrics.Registry // non-nil when Options.EnableMetrics
	Trace   *trace.Tracer     // non-nil when Options.TraceLimit or FlightWindow > 0
	Correct []bool            // per node: eligible for end-state probes (never crashed, not still down)

	// Reports holds one conformance report per shard key when the run was
	// traced with TraceLimit (and no FlightWindow); nil otherwise. They do
	// not feed Passed: a run can conform and still fail a probe, and a
	// probe can pass while the history is unexplainable.
	Reports map[string]*conform.Report

	// Reconfigs counts the membership changes that committed (join/leave
	// events that won their epoch claim, plus the heal-time rejoins); on a
	// healthy run FinalEpoch equals it. Both are zero on plans without
	// reconfiguration events.
	Reconfigs  int
	FinalEpoch uint32

	// ShardAcked is the acked-update count per shard, in open order. A
	// healthy multi-shard run acks on every shard.
	ShardAcked []int

	// Anomalies holds every watchdog firing in detection order; Unexpected
	// the subset whose rule no injected fault predicts. Each unexpected
	// firing is also a "watchdog" violation, so a miscalibrated rule (or a
	// cluster misbehaving without a nemesis cause) fails the run.
	Anomalies  []health.Firing `json:"anomalies,omitempty"`
	Unexpected []health.Firing `json:"unexpected,omitempty"`

	// FlightDump is the flight recorder's window captured at the first
	// watchdog firing (nil without FlightWindow or without firings): the
	// moments leading up to the anomaly, frozen before further traffic
	// rotates them out of the ring.
	FlightDump []trace.Event `json:"-"`
}

// Summary renders a one-line verdict for exploration logs.
func (v *Verdict) Summary() string {
	verdict := "PASS"
	if !v.Passed {
		verdict = fmt.Sprintf("FAIL(%d)", len(v.Violations))
	}
	return fmt.Sprintf("class=%-9s seed=%-6d events=%-2d issued=%-4d acked=%-4d makespan=%-10v hash=%016x %s",
		v.Plan.Class, v.Plan.Seed, len(v.Plan.Events), v.Issued, v.Acked, v.Makespan, v.TraceHash, verdict)
}

// runner holds the live state of one plan execution. Every plan runs on a
// store.Store: max(ShardMix, 1) same-class shards behind a keyed directory
// sharing the node set, the fabric and one failure domain. Node and link
// faults hit that shared substrate, and every correctness probe is
// evaluated per shard, so a multi-shard run also asks whether a fault that
// stalls one shard leaves its siblings acking, draining and converging.
type runner struct {
	plan   Plan
	opts   Options
	cls    *spec.Class
	an     *spec.Analysis
	eng    *sim.Engine
	fab    *rdma.Fabric
	st     *store.Store
	shards []*store.Shard // in open order: s00, s01, …
	rng    *rand.Rand     // workload randomness, independent of the engine's

	// cluster is shard s00's cluster. Reconfiguration and client sessions
	// act on it; plan validation keeps both off multi-shard plans.
	cluster *core.Cluster

	down    []bool // suspended by the plan (includes leaderkill victims)
	crashed []bool
	leaving []bool // leave event fired (or committed): not a workload origin
	left    []bool // leave committed: rejoined by healAll

	sessions []*session // client sessions (Plan.Sessions), nil otherwise

	acked   [][][]uint32 // acked[shard][p][u]: acknowledged updates by origin and method
	pending [][]int      // pending[shard][origin]: in-flight calls
	batches int          // issue ticks seen (drives the query mix)
	v       *Verdict
	wd      *health.Watchdog

	cEvents, cCalls, cViolations *metrics.Counter
}

// Run executes one fault plan and returns its verdict. The run is fully
// deterministic in the plan: equal plans produce equal verdicts and equal
// trace hashes.
func Run(p Plan, opts Options) (*Verdict, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	cls := classRegistry[p.Class]()
	an := spec.MustAnalyze(cls)
	eng := sim.NewEngine(p.Seed)
	fab := rdma.NewFabric(eng, p.Nodes, rdma.DefaultLatency())

	sopts := store.DefaultOptions()
	// Tight detector timings: plans play out over a few milliseconds, so
	// suspicion must fire within tens of microseconds of a failure. The
	// raised trust threshold avoids restore churn on flapping schedules.
	sopts.Core.Heartbeat = heartbeat.Config{
		BeatPeriod:     5 * sim.Microsecond,
		CheckPeriod:    10 * sim.Microsecond,
		Threshold:      3,
		TrustThreshold: 2,
	}
	// Integrity is probed (and reported) rather than asserted: a violation
	// must become a verdict, not a panic.
	sopts.Core.CheckIntegrity = false
	sopts.Core.DisableFailureHandling = p.DisableRecovery
	sopts.Core.MutateApplyOrder = p.MutateApplyOrder
	if p.FullSummaries {
		sopts.Core.DeltaLogBytes = 0
	}
	if p.AnchorInterval > 0 {
		sopts.Core.AnchorInterval = p.AnchorInterval
	}
	sopts.CrossWire = p.CrossWireShards
	// Exact admission: the budget is sized to the plan's shard count, so a
	// footprint-accounting regression surfaces here as an Open error.
	nshards := max(p.ShardMix, 1)
	sopts.MemoryBudget = nshards * store.Footprint(an, p.Nodes, sopts.Core)

	r := &runner{
		plan: p, opts: opts, cls: cls, an: an, eng: eng, fab: fab,
		rng:     rand.New(rand.NewSource(p.Seed ^ 0x5DEECE66D)),
		down:    make([]bool, p.Nodes),
		crashed: make([]bool, p.Nodes),
		leaving: make([]bool, p.Nodes),
		left:    make([]bool, p.Nodes),
		v:       &Verdict{Plan: p},
	}
	if opts.EnableMetrics {
		reg := metrics.New(eng)
		sopts.Core.Metrics = reg
		fab.EnableMetrics(reg)
		r.v.Metrics = reg
		r.cEvents = reg.Counter("chaos.events")
		r.cCalls = reg.Counter("chaos.calls")
		r.cViolations = reg.Counter("chaos.violations")
	}
	if opts.FlightWindow > 0 {
		sopts.Tracer = trace.NewFlightRecorder(eng, opts.FlightWindow)
	} else if opts.TraceLimit > 0 {
		sopts.Tracer = trace.New(eng, opts.TraceLimit)
	}
	r.v.Trace = sopts.Tracer
	r.st = store.New(fab, sopts)
	// The watchdog observes health snapshots on the probe cadence. Both
	// collection and evaluation are read-only and cost no virtual time, so
	// trace hashes are identical with and without it; its firings are
	// cross-checked against the fault plan at the end of the run.
	r.wd = health.NewWatchdog(health.Config{
		Metrics: sopts.Core.Metrics,
		Tracer:  sopts.Tracer,
		OnFirstFiring: func(health.Firing) {
			if r.v.Trace != nil {
				r.v.FlightDump = r.v.Trace.Events()
			}
		},
	})
	for i := 0; i < nshards; i++ {
		key := fmt.Sprintf("s%02d", i)
		sh, err := r.st.Open(key, an, store.ShardOptions{})
		if err != nil {
			return nil, fmt.Errorf("chaos: opening shard %s: %w", key, err)
		}
		r.shards = append(r.shards, sh)
		acked := make([][]uint32, p.Nodes)
		for n := range acked {
			acked[n] = make([]uint32, len(cls.Methods))
		}
		r.acked = append(r.acked, acked)
		r.pending = append(r.pending, make([]int, p.Nodes))
	}
	r.cluster = r.shards[0].Cluster
	r.v.ShardAcked = make([]int, nshards)
	r.run()
	return r.v, nil
}

func (r *runner) run() {
	// Schedule the nemesis events.
	for _, e := range r.plan.Events {
		e := e
		r.eng.At(e.At, func() { r.apply(e) })
	}

	// Workload: batches of random updates from random live origins.
	issueTick := r.eng.NewTicker(r.opts.IssuePeriod, r.issueBatch)

	// Client sessions, one op per session per tick (Plan.Sessions).
	var sessTick *sim.Ticker
	if r.plan.Sessions > 0 {
		r.startSessions()
		sessTick = r.eng.NewTicker(2*r.opts.IssuePeriod, r.stepSessions)
	}

	// Integrity probe: the invariant must hold at every queried point on
	// every live replica. The watchdog rides the same cadence — its
	// consecutive-observation thresholds are denominated in probe periods.
	probeTick := r.eng.NewTicker(r.opts.ProbePeriod, func() {
		r.probeIntegrity(false)
		r.wd.Observe(health.Collect(r.eng.Now(), r.st))
	})

	// Run the schedule out: workload end or last event, whichever is later.
	horizon := sim.Time(sim.Duration(r.plan.Ops/r.opts.BatchSize+2) * r.opts.IssuePeriod)
	for _, e := range r.plan.Events {
		if e.At >= horizon {
			horizon = e.At + 1
		}
	}
	r.eng.RunUntil(horizon)
	issueTick.Cancel()
	if sessTick != nil {
		sessTick.Cancel()
	}

	// Heal the world, then drive to quiescence.
	if !r.plan.NoFinalHeal {
		r.healAll()
	}
	r.v.Drained = r.drain()
	probeTick.Cancel()

	// Final probes over the quiescent state: shards that drained must
	// converge and hold exactly-once; shards that did not are one
	// quiescence violation naming them, so isolation failures read
	// directly off the verdict.
	if !r.v.Drained {
		r.violateQuiescence()
	}
	for si := range r.shards {
		if r.quiescent(si) {
			r.probeConvergence(si)
			r.probeExactlyOnce(si)
		}
	}
	r.probeIntegrity(true)
	classifyFirings(r.v, r.wd, r.violate)

	r.v.Makespan = sim.Duration(r.eng.Now())
	r.v.FinalEpoch = uint32(r.cluster.Epoch())
	r.v.Passed = len(r.v.Violations) == 0
	r.v.Correct = make([]bool, r.plan.Nodes)
	for n := 0; n < r.plan.Nodes; n++ {
		r.v.Correct[n] = r.correct(n)
	}
	// Seal the trace hash with the end-of-run facts so verdict-affecting
	// divergence always shows up in it.
	r.fold(int64(r.eng.Now()), int64(r.v.Issued), int64(r.v.Acked), int64(len(r.v.Violations)))
	if r.multi() {
		for _, a := range r.v.ShardAcked {
			r.fold(int64(a))
		}
	}
	r.st.Stop()
	if r.opts.TraceLimit > 0 && r.opts.FlightWindow <= 0 {
		r.checkConformance()
	}
}

// checkConformance replays each shard's history through conform.Check,
// exactly as if that shard were a standalone cluster (per-object checking
// is what replication-aware linearizability asks for). Events that belong
// to no shard — heartbeats and other fabric-level traffic — carry nothing
// the checks read and are dropped. RequireIssued is on: the trace is
// complete, and a call applied in one shard but issued in another is
// exactly the leakage a per-shard check exists to catch (the plan's
// CrossWireShards knob is that mutation control).
func (r *runner) checkConformance() {
	events := r.v.Trace.Events()
	byShard := trace.ByShard(events)
	delete(byShard, "")
	r.v.Reports = make(map[string]*conform.Report, len(byShard))
	for key, evs := range byShard {
		rep := conform.Check(r.an, evs, conform.Options{
			Nodes:         r.plan.Nodes,
			Quiescent:     r.v.Drained,
			Correct:       r.v.Correct,
			RequireIssued: true,
		})
		if r.plan.Sessions > 0 {
			// Sessions run on the plan's only shard; their records are
			// client-side and carry no shard tag.
			rep.Violations = append(rep.Violations, conform.CheckSessions(events)...)
		}
		if d := r.v.Trace.Dropped(); d > 0 {
			rep.Violations = append([]conform.Violation{{
				Check: "trace", Node: -1,
				Detail: fmt.Sprintf("%d events dropped beyond the %d-event trace limit; history incomplete", d, r.opts.TraceLimit),
			}}, rep.Violations...)
		}
		r.v.Reports[key] = rep
	}
}

// Conforms reports whether the run was checked and every shard's history
// is explainable by the abstract semantics.
func (v *Verdict) Conforms() bool {
	for _, rep := range v.Reports {
		if !rep.OK() {
			return false
		}
	}
	return len(v.Reports) > 0
}

// multi reports whether the plan spreads its workload over several shards.
// Single-shard runs draw no shard index and fold none into the trace hash,
// so their schedules and hashes are those of a plain one-object cluster.
func (r *runner) multi() bool { return len(r.shards) > 1 }

// where prefixes a shard's probe reports with its key on multi-shard runs.
func (r *runner) where(si int) string {
	if !r.multi() {
		return ""
	}
	return r.shards[si].Key + ": "
}

// apply executes one nemesis event at its scheduled time. Events are
// forgiving — resuming a live node or healing an intact link is a no-op —
// so shrinking can drop any single event and still leave a runnable plan.
func (r *runner) apply(e Event) {
	r.cEvents.Inc()
	switch e.Kind {
	case KindSuspend:
		r.suspend(e.Node)
	case KindResume:
		r.resume(e.Node)
	case KindCrash:
		if !r.crashed[e.Node] {
			r.crashed[e.Node] = true
			r.fab.Node(rdma.NodeID(e.Node)).Crash()
		}
	case KindPartition:
		r.fab.Partition(rdma.NodeID(e.A), rdma.NodeID(e.B))
	case KindHeal:
		r.fab.Heal(rdma.NodeID(e.A), rdma.NodeID(e.B))
	case KindDelay:
		r.fab.SetDelay(rdma.NodeID(e.A), rdma.NodeID(e.B), e.Extra, e.Jitter)
	case KindTorn:
		tear := e.Extra
		if tear <= 0 {
			tear = DefaultTear
		}
		r.fab.SetTorn(rdma.NodeID(e.A), rdma.NodeID(e.B), tear, e.Jitter)
	case KindTornHeal:
		r.fab.SetTorn(rdma.NodeID(e.A), rdma.NodeID(e.B), 0, 0)
	case KindLeaderKill:
		r.leaderKill(e.Group)
	case KindLeave:
		r.reconfig(e.Node, false)
	case KindJoin:
		r.reconfig(e.Node, true)
	}
	r.fold(int64(r.eng.Now()), int64(kindIndex(e.Kind)), int64(e.Node), int64(e.A), int64(e.B))
}

// suspend stops node n's process — every shard it hosts at once; the
// shared failure domain's beater is the node's single heartbeat thread.
func (r *runner) suspend(n int) {
	if r.down[n] || r.crashed[n] {
		return
	}
	r.down[n] = true
	if fd := r.st.FailureDomain(); fd != nil {
		fd.Beater(n).Suspend()
	}
	r.fab.Node(rdma.NodeID(n)).Suspend()
}

func (r *runner) resume(n int) {
	if !r.down[n] || r.crashed[n] {
		return
	}
	r.down[n] = false
	if fd := r.st.FailureDomain(); fd != nil {
		fd.Beater(n).Resume()
	}
	r.fab.Node(rdma.NodeID(n)).Resume()
}

// leaderKill routes group g to shard g mod shards and suspends that
// shard's current leader of group (g / shards) mod groups, as seen by the
// lowest-id live replica — on multi-shard runs a fault aimed at exactly
// one shard's consensus, the probe for cross-shard stall isolation.
// Classes without conflicting methods have no leaders; the kill then falls
// on the lowest-id live node so the event still perturbs something.
func (r *runner) leaderKill(g int) {
	obs := r.firstLive()
	if obs < 0 {
		return
	}
	victim := obs
	if len(r.an.SyncGroups) > 0 {
		sh := r.shards[g%len(r.shards)]
		victim = int(sh.Cluster.Leader(spec.ProcID(obs), (g/len(r.shards))%len(r.an.SyncGroups)))
	}
	r.suspend(victim)
}

func (r *runner) firstLive() int {
	if live := r.issuable(); len(live) > 0 {
		return live[0]
	}
	return -1
}

// reconfigSettle is how long the runner stops issuing at a leave target
// before driving the membership change: in-flight calls at the target
// drain (and their remote writes land) before its write permission is
// revoked, so no acknowledged call can be silently dropped by the epoch
// gate.
const reconfigSettle = 2 * 50 * sim.Microsecond

// reconfig drives one membership change from a plan event. Reconfiguration
// is asynchronous (membership-view agreement, then the epoch claim); the
// commit folds into the trace hash when it resolves. Failures are
// forgiving like every other nemesis event — a join of a member or a claim
// lost to a concurrent change is a no-op, so shrinking can drop events and
// still leave a runnable plan — but they fold distinctly, so schedules
// that diverge on the outcome diverge in hash.
func (r *runner) reconfig(n int, join bool) {
	if join {
		r.cluster.Join(n, func(err error) {
			if err == nil {
				r.left[n], r.leaving[n] = false, false
				r.v.Reconfigs++
			}
			r.fold(int64(r.eng.Now()), 20, int64(n), reconfigCode(err))
		})
		return
	}
	r.leaving[n] = true // stop issuing here before the permissions go
	r.eng.After(reconfigSettle, func() {
		r.cluster.Leave(n, func(err error) {
			if err == nil {
				r.left[n] = true
				r.v.Reconfigs++
			} else {
				r.leaving[n] = r.left[n]
			}
			r.fold(int64(r.eng.Now()), 21, int64(n), reconfigCode(err))
		})
	})
}

func reconfigCode(err error) int64 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrEpochConflict):
		return 1
	case errors.Is(err, core.ErrNoAgreement):
		return 2
	case errors.Is(err, core.ErrAlreadyMember), errors.Is(err, core.ErrNotMember):
		return 3
	case errors.Is(err, core.ErrNoInitiator):
		return 4
	}
	return 5
}

// healAll lifts every remaining fault: suspended nodes resume, all link
// faults clear (releasing parked traffic), and departed nodes rejoin the
// configuration — they kept receiving as observers, so the join is a
// permission grant plus a summary-row refresh. Crashed nodes stay dead.
func (r *runner) healAll() {
	for i := 0; i < r.plan.Nodes; i++ {
		r.resume(i)
	}
	r.fab.HealAll()
	for i := 0; i < r.plan.Nodes; i++ {
		if r.left[i] {
			r.reconfig(i, true)
		}
	}
	r.fold(int64(r.eng.Now()), -1) // mark the heal in the trace
}

// issueBatch issues up to BatchSize updates to random shards from random
// live origins.
func (r *runner) issueBatch() {
	if r.v.Issued >= r.plan.Ops {
		return
	}
	r.batches++
	if r.opts.QueryMix > 0 && r.batches%r.opts.QueryMix == 0 {
		r.issueQuery()
	}
	ups := r.cls.UpdateMethods()
	for i := 0; i < r.opts.BatchSize && r.v.Issued < r.plan.Ops; i++ {
		live := r.issuable()
		if len(live) == 0 {
			return
		}
		si := r.pickShard()
		origin := spec.ProcID(live[r.rng.Intn(len(live))])
		u := ups[r.rng.Intn(len(ups))]
		call := r.cls.Gen.Call(r.rng, u)
		fixTags(&call, origin, uint64(r.v.Issued)+1)
		r.invoke(si, origin, u, call.Args, nil)
	}
}

// pickShard draws the shard of the next call. A single-shard run draws
// nothing: the workload stream stays that of a plain one-object cluster.
func (r *runner) pickShard() int {
	if !r.multi() {
		return 0
	}
	return r.rng.Intn(len(r.shards))
}

// foldCall folds one call completion, tagged with its shard on multi-shard
// runs.
func (r *runner) foldCall(si int, vals ...int64) {
	if r.multi() {
		vals = append([]int64{vals[0], int64(si)}, vals[1:]...)
	}
	r.fold(vals...)
}

// invoke issues one update on shard si, maintaining the probe bookkeeping.
// onAck, when non-nil, runs after the bookkeeping when the call resolves
// (the session clients hook it to stamp their evidence at ack time).
func (r *runner) invoke(si int, origin spec.ProcID, u spec.MethodID, args spec.Args, onAck func(error)) {
	r.v.Issued++
	r.cCalls.Inc()
	r.pending[si][origin]++
	r.shards[si].Invoke(origin, u, args, func(_ any, err error) {
		r.pending[si][origin]--
		code := int64(0)
		switch {
		case err == nil:
			r.acked[si][origin][u]++
			r.v.ShardAcked[si]++
			r.v.Acked++
		case errors.Is(err, core.ErrImpermissible):
			r.v.Rejected++
			code = 1
		case errors.Is(err, core.ErrDown):
			code = 2
		default:
			code = 3
			r.violate("invoke-error", fmt.Sprintf("%sp%d %s: %v", r.where(si), origin, r.cls.Methods[u].Name, err))
		}
		r.foldCall(si, int64(r.eng.Now()), int64(origin), int64(u), code)
		if onAck != nil {
			onAck(err)
		}
	})
}

// issueQuery evaluates one random query on a random shard at a random live
// origin. Results
// land in the trace (for the conformance checker to explain), not in the
// verdict: a query failing with ErrDown mid-fault is expected behavior.
func (r *runner) issueQuery() {
	qs := r.cls.QueryMethods()
	if len(qs) == 0 {
		return
	}
	live := r.issuable()
	if len(live) == 0 {
		return
	}
	si := r.pickShard()
	origin := spec.ProcID(live[r.rng.Intn(len(live))])
	q := qs[r.rng.Intn(len(qs))]
	call := r.cls.Gen.Call(r.rng, q)
	fresh := r.rng.Intn(2) == 0
	r.shards[si].Query(origin, q, call.Args, fresh, func(_ any, err error) {
		code := int64(0)
		if err != nil {
			code = 1
		}
		r.foldCall(si, int64(r.eng.Now()), int64(origin), int64(q), 16+code)
	})
}

// usable reports whether node n may originate calls and serve sessions:
// up, and in (or not yet leaving) the configuration — a departed node acks
// writes locally that no member will ever accept.
func (r *runner) usable(n int) bool {
	return !r.down[n] && !r.crashed[n] && !r.leaving[n]
}

// issuable lists the usable nodes.
func (r *runner) issuable() []int {
	var live []int
	for n := 0; n < r.plan.Nodes; n++ {
		if r.usable(n) {
			live = append(live, n)
		}
	}
	return live
}

// fixTags rewrites tag-bearing arguments to be globally unique, as the
// class generators expect the driver to do.
func fixTags(call *spec.Call, p spec.ProcID, salt uint64) {
	switch {
	case call.Method == crdt.ORSetAdd && len(call.Args.I) >= 2:
		call.Args.I[1] = crdt.Tag(p, salt)
	case call.Method == crdt.CartAdd && len(call.Args.I) >= 3:
		call.Args.I[2] = crdt.Tag(p, salt)
	}
}

// correct reports whether node n should satisfy the end-state probes: it
// never crashed and is not (still) suspended.
func (r *runner) correct(n int) bool { return !r.down[n] && !r.crashed[n] }

// inflight counts shard si's in-flight calls from correct origins; calls
// stranded on a dead origin can never complete and are exempt.
func (r *runner) inflight(si int) int {
	total := 0
	for n, c := range r.pending[si] {
		if r.correct(n) {
			total += c
		}
	}
	return total
}

// replicated reports whether every correct replica of shard si has applied
// at least every acknowledged update from every correct origin.
func (r *runner) replicated(si int) bool {
	sh := r.shards[si]
	for n := 0; n < r.plan.Nodes; n++ {
		if !r.correct(n) {
			continue
		}
		applied := sh.Replica(spec.ProcID(n)).Applied()
		for p := 0; p < r.plan.Nodes; p++ {
			if !r.correct(p) {
				continue
			}
			for u, want := range r.acked[si][p] {
				if applied.Get(spec.ProcID(p), spec.MethodID(u)) < want {
					return false
				}
			}
		}
	}
	return true
}

// quiescent reports whether shard si has nothing in flight from correct
// origins and is fully replicated.
func (r *runner) quiescent(si int) bool { return r.inflight(si) == 0 && r.replicated(si) }

// stalled lists the shards that are not quiescent.
func (r *runner) stalled() []int {
	var out []int
	for si := range r.shards {
		if !r.quiescent(si) {
			out = append(out, si)
		}
	}
	return out
}

// drain runs the simulation until every shard is quiescent or the drain
// budget expires.
func (r *runner) drain() bool {
	deadline := r.eng.Now() + sim.Time(r.opts.DrainDeadline)
	for r.eng.Now() < deadline {
		r.eng.RunFor(200 * sim.Microsecond)
		if len(r.stalled()) == 0 {
			return true
		}
	}
	return false
}

// violateQuiescence reports the shards the drain left stalled as one
// violation, naming them on multi-shard runs.
func (r *runner) violateQuiescence() {
	var keys []string
	inflight, incomplete := 0, false
	for _, si := range r.stalled() {
		keys = append(keys, r.shards[si].Key)
		inflight += r.inflight(si)
		incomplete = incomplete || !r.replicated(si)
	}
	where := ""
	if r.multi() {
		where = fmt.Sprintf("shards [%s] ", strings.Join(keys, " "))
	}
	r.violate("quiescence", fmt.Sprintf("%snot quiescent after %v drain: %d calls in flight from correct origins, replication incomplete=%v",
		where, r.opts.DrainDeadline, inflight, incomplete))
}

// probeConvergence checks all correct replicas of shard si reached
// identical states.
func (r *runner) probeConvergence(si int) {
	sh := r.shards[si]
	ref := -1
	var refState spec.State
	for n := 0; n < r.plan.Nodes; n++ {
		if !r.correct(n) {
			continue
		}
		st := sh.Replica(spec.ProcID(n)).CurrentState()
		if refState == nil {
			ref, refState = n, st
			continue
		}
		if !refState.Equal(st) {
			r.violate("convergence", fmt.Sprintf("%sreplicas p%d and p%d hold different states after heal+drain", r.where(si), ref, n))
		}
	}
}

// probeExactlyOnce checks shard si's applied-call counts: every
// acknowledged update from a correct origin is applied exactly once at
// every correct replica — fewer is a lost update, more is a duplicate
// delivery.
func (r *runner) probeExactlyOnce(si int) {
	sh := r.shards[si]
	for n := 0; n < r.plan.Nodes; n++ {
		if !r.correct(n) {
			continue
		}
		applied := sh.Replica(spec.ProcID(n)).Applied()
		for p := 0; p < r.plan.Nodes; p++ {
			if !r.correct(p) {
				continue
			}
			for u, want := range r.acked[si][p] {
				got := applied.Get(spec.ProcID(p), spec.MethodID(u))
				switch {
				case got < want:
					r.violate("lost-update", fmt.Sprintf("%sp%d applied %d of %d acked %s calls from p%d",
						r.where(si), n, got, want, r.cls.Methods[u].Name, p))
				case got > want:
					r.violate("duplicate", fmt.Sprintf("%sp%d applied %d %s calls from p%d but only %d were acked",
						r.where(si), n, got, r.cls.Methods[u].Name, p, want))
				}
			}
		}
	}
}

// probeIntegrity checks the class invariant on every live replica's
// current state, shard by shard. Transient violations during the run are
// real violations: integrity must hold at every queried point (§3,
// integrity).
func (r *runner) probeIntegrity(final bool) {
	if r.cls.TrivialInvariant || r.cls.Invariant == nil {
		return
	}
	for si, sh := range r.shards {
		for n := 0; n < r.plan.Nodes; n++ {
			if r.down[n] || r.crashed[n] {
				continue
			}
			if !r.cls.Invariant(sh.Replica(spec.ProcID(n)).CurrentState()) {
				when := "during run"
				if final {
					when = "after heal+drain"
				}
				r.violate("integrity", fmt.Sprintf("%sinvariant violated at p%d (%s)", r.where(si), n, when))
				break // one report per shard per probe tick is enough
			}
		}
	}
}

func (r *runner) violate(probe, detail string) {
	r.cViolations.Inc()
	if len(r.v.Violations) >= maxViolations {
		return
	}
	r.v.Violations = append(r.v.Violations, Violation{At: r.eng.Now(), Probe: probe, Detail: detail})
}

// --- trace hashing ---------------------------------------------------------

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold mixes vals into the verdict's FNV-1a trace hash. Every nemesis
// action and call completion folds (with its virtual timestamp), so two
// runs with the same hash took the same schedule through the same trace.
func (r *runner) fold(vals ...int64) { r.v.fold(vals...) }

func (v *Verdict) fold(vals ...int64) {
	h := v.TraceHash
	if h == 0 {
		h = fnvOffset
	}
	for _, v := range vals {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= fnvPrime
			u >>= 8
		}
	}
	v.TraceHash = h
}

func kindIndex(k Kind) int {
	switch k {
	case KindSuspend:
		return 1
	case KindResume:
		return 2
	case KindCrash:
		return 3
	case KindPartition:
		return 4
	case KindHeal:
		return 5
	case KindDelay:
		return 6
	case KindLeaderKill:
		return 7
	case KindTorn:
		return 8
	case KindTornHeal:
		return 9
	case KindLeave:
		return 10
	case KindJoin:
		return 11
	}
	return 0
}

// FormatViolations renders a verdict's violations, one per line.
func FormatViolations(v *Verdict) string {
	var b strings.Builder
	for _, viol := range v.Violations {
		fmt.Fprintf(&b, "  %s\n", viol)
	}
	return b.String()
}

// FormatReports renders the verdict's conformance reports, one per shard
// in key order, each prefixed with its key.
func FormatReports(v *Verdict) string {
	keys := make([]string, 0, len(v.Reports))
	for k := range v.Reports {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		lines[i] = fmt.Sprintf("%s: %s", k, v.Reports[k])
	}
	return strings.Join(lines, "\n")
}
