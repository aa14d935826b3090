package chaos

import (
	"math/rand"
	"sort"

	"hamband/internal/sim"
)

// window is a planned down-interval used by the generator to respect the
// majority-up constraint while composing a schedule.
type window struct {
	from, to sim.Time
	node     int // -1: node unknown until run time (leaderkill)
}

func overlaps(a, b window) bool { return a.from < b.to && b.from < a.to }

// Generate builds a randomized fault plan for class: a seed-deterministic
// mix of suspend/resume windows, partitions, latency spikes, torn-write
// windows and leader kills over the workload's lifetime. Generated plans keep a majority of
// nodes up at every instant (stalls still heal, but bounded-minority
// schedules exercise recovery rather than just the final heal) and never
// emit crashes — a dead NIC is outside the paper's failure model, whose
// recovery reads depend on the suspect's NIC staying up.
//
// The same (class, nodes, ops, seed) always yields the same plan.
func Generate(class string, nodes, ops int, seed int64) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Class: class, Nodes: nodes, Ops: ops, Seed: seed}

	// The workload runs batches of 4 every 50 µs (the runner defaults);
	// faults land anywhere in that span.
	horizon := sim.Time(sim.Duration(ops/4+2) * 50 * sim.Microsecond)
	at := func() sim.Time { return sim.Time(rng.Int63n(int64(horizon))) }
	span := func() sim.Duration {
		return sim.Duration(50+rng.Int63n(400)) * sim.Microsecond
	}

	maxDown := (nodes - 1) / 2
	var downs []window
	admissible := func(w window) bool {
		concurrent := 1
		for _, o := range downs {
			if !overlaps(w, o) {
				continue
			}
			if o.node == w.node || o.node == -1 || w.node == -1 {
				return false // same node (or an unknown one) twice
			}
			concurrent++
		}
		return concurrent <= maxDown
	}

	for i, n := 0, 3+rng.Intn(6); i < n; i++ {
		switch k := rng.Intn(12); {
		case k < 3: // suspend → resume window
			w := window{node: rng.Intn(nodes)}
			w.from = at()
			w.to = w.from + sim.Time(span())
			if !admissible(w) {
				continue
			}
			downs = append(downs, w)
			p.Events = append(p.Events,
				Event{At: w.from, Kind: KindSuspend, Node: w.node},
				Event{At: w.to, Kind: KindResume, Node: w.node})
		case k < 6: // partition → heal window (parks traffic; majority unaffected)
			a := rng.Intn(nodes)
			b := rng.Intn(nodes - 1)
			if b >= a {
				b++
			}
			from := at()
			p.Events = append(p.Events,
				Event{At: from, Kind: KindPartition, A: a, B: b},
				Event{At: from + sim.Time(span()), Kind: KindHeal, A: a, B: b})
		case k < 8: // latency spike → clear window
			a := rng.Intn(nodes)
			b := rng.Intn(nodes - 1)
			if b >= a {
				b++
			}
			from := at()
			extra := sim.Duration(2+rng.Int63n(9)) * sim.Microsecond
			jitter := sim.Duration(rng.Int63n(3)) * sim.Microsecond
			p.Events = append(p.Events,
				Event{At: from, Kind: KindDelay, A: a, B: b, Extra: extra, Jitter: jitter},
				Event{At: from + sim.Time(span()), Kind: KindDelay, A: a, B: b})
		case k < 10: // torn-write window: interior bytes land late on one link
			a := rng.Intn(nodes)
			b := rng.Intn(nodes - 1)
			if b >= a {
				b++
			}
			from := at()
			tear := sim.Duration(200+rng.Int63n(600)) * sim.Nanosecond
			jitter := sim.Duration(rng.Int63n(301)) * sim.Nanosecond
			p.Events = append(p.Events,
				Event{At: from, Kind: KindTorn, A: a, B: b, Extra: tear, Jitter: jitter},
				Event{At: from + sim.Time(span()), Kind: KindTornHeal, A: a, B: b})
		default: // leader kill; the victim stays down until the final heal
			w := window{from: at(), to: horizon + 1, node: -1}
			if !admissible(w) {
				continue
			}
			downs = append(downs, w)
			p.Events = append(p.Events, Event{At: w.from, Kind: KindLeaderKill, Group: rng.Intn(4)})
		}
	}

	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// GenerateSharded builds a randomized fault plan that runs against a
// sharded store: the same seed-deterministic fault schedule Generate
// emits, with the workload spread over shards same-class objects. Kept
// as a wrapper (rather than a Generate knob) so the single-object
// corpus hashes are untouched.
func GenerateSharded(class string, nodes, ops int, seed int64, shards int) Plan {
	p := Generate(class, nodes, ops, seed)
	p.ShardMix = shards
	return p
}

// GenerateReconfig builds a randomized fault plan with a membership
// round-trip riding on it: one node leaves a third of the way through the
// workload and rejoins at two thirds, with sessions client sessions
// spanning the epoch changes. The reconfiguration target is a node no
// suspend window touches, so the leave/join composes with the base
// schedule instead of colliding with it. Kept as a wrapper (like
// GenerateSharded) so the static-membership corpus hashes are untouched.
func GenerateReconfig(class string, nodes, ops int, seed int64, sessions int) Plan {
	p := Generate(class, nodes, ops, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x6a09e667))
	horizon := sim.Time(sim.Duration(ops/4+2) * 50 * sim.Microsecond)
	used := make(map[int]bool)
	for _, e := range p.Events {
		switch e.Kind {
		case KindSuspend, KindResume, KindCrash:
			used[e.Node] = true
		}
	}
	target := rng.Intn(nodes)
	for _, c := range rng.Perm(nodes) {
		if !used[c] {
			target = c
			break
		}
	}
	p.Sessions = sessions
	p.Events = append(p.Events,
		Event{At: horizon / 3, Kind: KindLeave, Node: target},
		Event{At: 2 * horizon / 3, Kind: KindJoin, Node: target},
	)
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// dropCandidate returns the plan with event i removed — together with its
// partner when event i is half of a leave/join pair. Dropping a leave
// alone would strand its join as an orphan (Validate rejects the plan, and
// any later probe referencing the round-trip would silently lose its first
// half), so a shrink step removes the pair as a unit.
func (p Plan) dropCandidate(i int) Plan {
	switch e := p.Events[i]; e.Kind {
	case KindLeave:
		for j := i + 1; j < len(p.Events); j++ {
			if p.Events[j].Kind == KindJoin && p.Events[j].Node == e.Node {
				return p.Without(j).Without(i)
			}
		}
	case KindJoin:
		for j := i - 1; j >= 0; j-- {
			if p.Events[j].Kind == KindLeave && p.Events[j].Node == e.Node {
				return p.Without(i).Without(j)
			}
		}
	}
	return p.Without(i)
}

// Shrink greedily minimizes a failing plan: it repeatedly tries dropping
// one event at a time (a leave/join pair counts as one unit), keeping any
// drop after which failing still reports true, until no single event can
// be removed; then it finds the smallest workload that still fails, and
// drops events once more. Workloads are prefix-stable — the first k calls
// of an Ops=n plan are exactly the Ops=k plan — so the ops stage scans
// upward from 1 and takes the first failing prefix, which sidesteps the
// local minima a greedy decrement gets stuck in (a schedule can fail at 6
// ops, pass at 20, and fail again at 40). failing is typically a closure
// over Run; with ≤ a dozen events the quadratic passes stay cheap.
func Shrink(p Plan, failing func(Plan) bool) Plan {
	p = dropEvents(p, failing)
	for ops := 1; ops < p.Ops; ops++ {
		q := p
		q.Ops = ops
		if failing(q) {
			p = q
			break
		}
	}
	return dropEvents(p, failing)
}

// dropEvents is Shrink's event stage.
func dropEvents(p Plan, failing func(Plan) bool) Plan {
	for {
		removed := false
		for i := 0; i < len(p.Events); i++ {
			cand := p.dropCandidate(i)
			if failing(cand) {
				p = cand
				removed = true
				break
			}
		}
		if !removed {
			return p
		}
	}
}
