// Package rdmawrdt implements the paper's concrete operational semantics of
// RDMA replicated data types (§3.3, Figures 6 and 7) as an executable
// transition system, together with a refinement checker against the
// abstract WRDT semantics (package wrdt).
//
// A configuration K maps each process to ⟨σ, A, S, F, L⟩: the stored state,
// the applied-calls map, the summarized calls (one slot per summarization
// group and process), the conflict-free buffers (one FIFO per remote
// process) and the conflicting buffers (one FIFO per synchronization
// group). The transitions are REDUCE, FREE, CONF, FREE-APP, CONF-APP and
// QUERY, exactly as in Figure 7.
//
// The package models the runtime's *protocol logic* with atomic rule
// firings; package core implements the same semantics over the simulated
// RDMA fabric with real buffers, wire latencies and failures.
package rdmawrdt

import (
	"fmt"

	"hamband/internal/spec"
)

// Entry is a buffered call paired with its dependency record, the
// (c, D) pairs stored in the F and L buffers.
type Entry struct {
	C spec.Call
	D spec.DepVec
}

// Proc is one process's component of the configuration: ⟨σ, A, S, F, L⟩.
type Proc struct {
	Sigma spec.State      // σ: result of applied conflicting/irreducible calls
	A     spec.AppliedMap // applied calls per (process, method)
	S     [][]spec.Call   // summarized calls: [sum group][process]
	F     [][]Entry       // conflict-free buffers: [issuing process]
	L     [][]Entry       // conflicting buffers: [sync group]
}

// Config is the configuration K of the concrete semantics.
type Config struct {
	Class   *spec.Class
	An      *spec.Analysis
	Leaders []spec.ProcID // leader process per synchronization group
	Procs   []*Proc
}

// New returns the initial configuration K0 for nprocs processes: initial
// states, zero applied maps, identity summaries and empty buffers. Leaders
// default to round-robin over processes; override via SetLeader.
func New(an *spec.Analysis, nprocs int) *Config {
	cls := an.Class
	k := &Config{Class: cls, An: an}
	for g := range an.SyncGroups {
		k.Leaders = append(k.Leaders, spec.ProcID(g%nprocs))
	}
	for i := 0; i < nprocs; i++ {
		p := &Proc{
			Sigma: cls.NewState(),
			A:     spec.NewAppliedMap(nprocs, len(cls.Methods)),
		}
		for g := range cls.SumGroups {
			row := make([]spec.Call, nprocs)
			for j := range row {
				row[j] = cls.SumGroups[g].Identity()
			}
			p.S = append(p.S, row)
		}
		p.F = make([][]Entry, nprocs)
		p.L = make([][]Entry, len(an.SyncGroups))
		k.Procs = append(k.Procs, p)
	}
	return k
}

// SetLeader assigns process p as the leader of synchronization group g.
func (k *Config) SetLeader(g int, p spec.ProcID) { k.Leaders[g] = p }

// Leader returns the leader of synchronization group g.
func (k *Config) Leader(g int) spec.ProcID { return k.Leaders[g] }

// NumProcs returns the number of processes.
func (k *Config) NumProcs() int { return len(k.Procs) }

// CurrentState returns Apply(S_p)(σ_p): the process's stored state with all
// summarized calls applied, which is the state queries observe. The stored
// state is not modified.
func (k *Config) CurrentState(p spec.ProcID) spec.State {
	st := k.Procs[p].Sigma.Clone()
	k.applySummaries(p, st)
	return st
}

func (k *Config) applySummaries(p spec.ProcID, st spec.State) {
	for _, row := range k.Procs[p].S {
		for _, c := range row {
			k.Class.ApplyCall(st, c)
		}
	}
}

// After returns Apply(S_p)(σ_p) with c applied, as a fresh state: what
// process p's queries would observe once c took effect there.
func (k *Config) After(p spec.ProcID, c spec.Call) spec.State {
	st := k.CurrentState(p)
	k.Class.ApplyCall(st, c)
	return st
}

// Permissible reports local permissibility of c at process p: the
// invariant holds on After(p, c). REDUCE, FREE and CONF fire only when it
// holds.
func (k *Config) Permissible(p spec.ProcID, c spec.Call) bool {
	return k.Class.TrivialInvariant || k.Class.Invariant(k.After(p, c))
}

// Ready reports whether process p may apply the buffered entry e: its
// dependency record is covered by p's applied calls (D ≤ A), the side
// condition of FREE-APP and CONF-APP.
func (k *Config) Ready(p spec.ProcID, e Entry) bool {
	return k.Procs[p].A.Satisfies(e.D, k.An.DependsOn[e.C.Method])
}

// Apply applies the update call c to process p's stored state and counts
// it in p's applied calls under its origin c.Proc.
func (k *Config) Apply(p spec.ProcID, c spec.Call) {
	pp := k.Procs[p]
	k.Class.ApplyCall(pp.Sigma, c)
	pp.A.Inc(c.Proc, c.Method)
}

// Install stores sum as process p's summary slot S_p[g][src] and raises
// p's applied counts of src's calls to counts, one per method of
// summarization group g in group order. Counts only grow: installing a
// stale slot never lowers A.
func (k *Config) Install(p spec.ProcID, g int, src spec.ProcID, sum spec.Call, counts []uint32) {
	pp := k.Procs[p]
	pp.S[g][src] = sum
	for i, u := range k.Class.SumGroups[g].Methods {
		if i < len(counts) && counts[i] > pp.A.Get(src, u) {
			pp.A.Set(src, u, counts[i])
		}
	}
}

// Reduce fires rule REDUCE: process c.Proc issues the reducible call c.
// The new summary and the advanced applied count are installed at every
// process in one atomic transition (the runtime realizes this with a pair
// of ordered remote writes per peer).
func (k *Config) Reduce(c spec.Call) error {
	u := c.Method
	if k.An.Category[u] != spec.CatReducible {
		return fmt.Errorf("rdmawrdt: REDUCE on non-reducible method %s", k.Class.Methods[u].Name)
	}
	if !k.Permissible(c.Proc, c) {
		return fmt.Errorf("rdmawrdt: REDUCE %s not locally permissible", c.Format(k.Class))
	}
	j := c.Proc
	g := k.An.SumGroupOf[u]
	sum := k.Class.SumGroups[g].Summarize(k.Procs[j].S[g][j], c)
	methods := k.Class.SumGroups[g].Methods
	counts := make([]uint32, len(methods))
	for i, m := range methods {
		counts[i] = k.Procs[j].A.Get(j, m)
		if m == u {
			counts[i]++
		}
	}
	for i := range k.Procs {
		k.Install(spec.ProcID(i), g, j, sum, counts)
	}
	return nil
}

// Free fires rule FREE: process c.Proc issues the irreducible conflict-free
// call c, applies it locally, and appends it with its dependency record to
// the conflict-free buffers every other process keeps for c.Proc.
func (k *Config) Free(c spec.Call) error {
	if cat := k.An.Category[c.Method]; cat != spec.CatIrreducibleFree {
		return fmt.Errorf("rdmawrdt: FREE on method %s of category %v", k.Class.Methods[c.Method].Name, cat)
	}
	return k.issue("FREE", c, func(p *Proc) *[]Entry { return &p.F[c.Proc] })
}

// Conf fires rule CONF: the leader of c's synchronization group issues the
// conflicting call c, applies it locally, and appends it to the group's
// conflicting buffer at every other process. c.Proc must be the group's
// leader — the runtime redirects client requests there.
func (k *Config) Conf(c spec.Call) error {
	u := c.Method
	if k.An.Category[u] != spec.CatConflicting {
		return fmt.Errorf("rdmawrdt: CONF on non-conflicting method %s", k.Class.Methods[u].Name)
	}
	g := k.An.SyncGroupOf[u]
	if k.Leaders[g] != c.Proc {
		return fmt.Errorf("rdmawrdt: CONF %s at p%d, but leader of group %d is p%d",
			c.Format(k.Class), c.Proc, g, k.Leaders[g])
	}
	return k.issue("CONF", c, func(p *Proc) *[]Entry { return &p.L[g] })
}

// issue is the body FREE and CONF share: if c is locally permissible at
// its origin, apply it there and append it with its dependency record
// D = A|Dep(u) to buffer(p) at every other process p.
func (k *Config) issue(rule string, c spec.Call, buffer func(*Proc) *[]Entry) error {
	j := c.Proc
	if !k.Permissible(j, c) {
		return fmt.Errorf("rdmawrdt: %s %s not locally permissible", rule, c.Format(k.Class))
	}
	d := k.Procs[j].A.Project(k.An.DependsOn[c.Method])
	k.Apply(j, c)
	for i, p := range k.Procs {
		if spec.ProcID(i) != j {
			b := buffer(p)
			*b = append(*b, Entry{C: c, D: d.Clone()})
		}
	}
	return nil
}

// Issue dispatches an update call to its category's rule.
func (k *Config) Issue(c spec.Call) error {
	switch k.An.Category[c.Method] {
	case spec.CatReducible:
		return k.Reduce(c)
	case spec.CatIrreducibleFree:
		return k.Free(c)
	case spec.CatConflicting:
		return k.Conf(c)
	default:
		return fmt.Errorf("rdmawrdt: Issue of non-update method %s", k.Class.Methods[c.Method].Name)
	}
}

// FreeApp fires rule FREE-APP: process p applies the head of its
// conflict-free buffer for process from, provided the call's dependencies
// are satisfied (D ≤ A).
func (k *Config) FreeApp(p, from spec.ProcID) error {
	return k.applyHead("FREE-APP", p, &k.Procs[p].F[from], "buffer for p%d", int(from))
}

// ConfApp fires rule CONF-APP: process p applies the head of its
// conflicting buffer for synchronization group g, provided the call's
// dependencies are satisfied.
func (k *Config) ConfApp(p spec.ProcID, g int) error {
	return k.applyHead("CONF-APP", p, &k.Procs[p].L[g], "group %d buffer", g)
}

// applyHead is the body FREE-APP and CONF-APP share: pop and apply the
// head of buf at process p once it is Ready. bufName formats the buffer's
// name from bufArg for the empty-buffer error.
func (k *Config) applyHead(rule string, p spec.ProcID, buf *[]Entry, bufName string, bufArg int) error {
	if len(*buf) == 0 {
		return fmt.Errorf("rdmawrdt: %s at p%d: "+bufName+" empty", rule, p, bufArg)
	}
	e := (*buf)[0]
	if !k.Ready(p, e) {
		return fmt.Errorf("rdmawrdt: %s %s at p%d: dependencies unsatisfied", rule, e.C.Format(k.Class), p)
	}
	k.Apply(p, e.C)
	*buf = (*buf)[1:]
	return nil
}

// Query fires rule QUERY: evaluate q(v) against Apply(S_p)(σ_p).
func (k *Config) Query(p spec.ProcID, q spec.MethodID, args spec.Args) any {
	return k.Class.Methods[q].Eval(k.CurrentState(p), args)
}

// Drained reports whether every F and L buffer is empty.
func (k *Config) Drained() bool {
	for _, p := range k.Procs {
		for _, b := range p.F {
			if len(b) > 0 {
				return false
			}
		}
		for _, b := range p.L {
			if len(b) > 0 {
				return false
			}
		}
	}
	return true
}

// CheckIntegrity verifies Corollary 1: I(Apply(S_i)(σ_i)) at every process.
func (k *Config) CheckIntegrity() error {
	for p := range k.Procs {
		if !k.Class.Invariant(k.CurrentState(spec.ProcID(p))) {
			return fmt.Errorf("rdmawrdt: integrity violated at p%d", p)
		}
	}
	return nil
}

// CheckConvergence verifies Corollary 2: with all buffers drained, the
// processes' current states are equal.
func (k *Config) CheckConvergence() error {
	if !k.Drained() {
		return nil
	}
	s0 := k.CurrentState(0)
	for p := 1; p < len(k.Procs); p++ {
		if !s0.Equal(k.CurrentState(spec.ProcID(p))) {
			return fmt.Errorf("rdmawrdt: p0 and p%d diverged after drain", p)
		}
	}
	return nil
}
