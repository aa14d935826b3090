package bench

import (
	"io"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/span"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// wireClasses are the classes the wire-efficiency study covers: every
// reducible bundle the δ-summary path accelerates. Classes with no
// reducible method (orset, cart) are the same in both arms: their
// broadcast records always use the packed framing.
func wireClasses() []func() *spec.Class {
	return []func() *spec.Class{
		crdt.NewCounter, crdt.NewPNCounter, crdt.NewLWW, crdt.NewGSet,
		crdt.NewLWWMap, crdt.NewTwoPSet,
	}
}

// wirePoint runs one traced Hamband point with the δ-record log on, or off
// (DeltaLogBytes = 0: every summary write is a full-state anchor), and
// reports bytes-on-wire per completed op plus the share of call latency the
// span attribution charges to the wire stage.
func (cfg Config) wirePoint(cls *spec.Class, nodes, ops int, deltaOn bool) (res *Result, bytesPerOp, wireShare float64) {
	eng := sim.NewEngine(cfg.Seed)
	an := spec.MustAnalyze(cls)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	opts := core.DefaultOptions()
	if !deltaOn {
		opts.DeltaLogBytes = 0
	}
	tr := trace.New(eng, 1<<20)
	opts.Tracer = tr
	sys := &hambandSystem{c: core.NewCluster(fab, an, opts)}
	wl := NewWorkload(an, nodes, ops, 1.0, cfg.Seed+1)
	res = Run(eng, sys, wl)

	if n := float64(res.Completed - res.Rejected); n > 0 {
		bytesPerOp = float64(fab.Stats().BytesWritten) / n
	}
	var wire, total sim.Duration
	for _, s := range span.Build(tr.Events()) {
		if s.Rejected {
			continue
		}
		for _, st := range s.Stages {
			total += st.Duration()
			if st.Name == "wire" {
				wire += st.Duration()
			}
		}
	}
	if total > 0 {
		wireShare = float64(wire) / float64(total)
	}
	return res, bytesPerOp, wireShare
}

// Wire runs the δ-ablation wire-efficiency study: for each class, the same
// update-only workload in full-state mode and in δ-mode, reporting bytes on
// the wire per operation, the reduction, throughput, and the wire stage's
// share of span-attributed latency. When jsonOut is non-nil the per-class
// points are written as a benchmark snapshot (`-exp benchstat` diffs it).
func (cfg Config) Wire(jsonOut io.Writer) {
	const nodes = 4
	ops := cfg.Ops / 4
	if ops < 500 {
		ops = 500
	}
	cfg.printf("Wire efficiency — δ-mutation broadcast vs full-state summaries (%d nodes, updates only)\n", nodes)
	cfg.printf("%-10s %11s %11s %9s %9s %9s %11s %11s\n",
		"class", "full B/op", "delta B/op", "saved", "T full", "T delta", "wire% full", "wire% delta")
	s := Snapshot{Schema: 1, Ops: ops, Seed: cfg.Seed}
	for _, mk := range wireClasses() {
		cls := mk()
		full, fBytes, fShare := cfg.wirePoint(cls, nodes, ops, false)
		delta, dBytes, dShare := cfg.wirePoint(cls, nodes, ops, true)
		saved := 0.0
		if fBytes > 0 {
			saved = 100 * (fBytes - dBytes) / fBytes
		}
		cfg.printf("%-10s %11.1f %11.1f %8.1f%% %9.2f %9.2f %10.1f%% %10.1f%%\n",
			full.Class, fBytes, dBytes, saved,
			full.Throughput(), delta.Throughput(), 100*fShare, 100*dShare)
		for _, v := range []struct {
			exp   string
			r     *Result
			bytes float64
		}{{"wire/full", full, fBytes}, {"wire/delta", delta, dBytes}} {
			s.Points = append(s.Points, SnapPoint{
				Experiment:  v.exp,
				System:      "hamband",
				Class:       v.r.Class,
				Nodes:       nodes,
				UpdateRatio: 1.0,
				OpsPerUs:    v.r.Throughput(),
				MeanRTUs:    v.r.MeanRT.Micros(),
				P50Us:       v.r.Percentile(50).Micros(),
				P95Us:       v.r.Percentile(95).Micros(),
				P99Us:       v.r.Percentile(99).Micros(),
				BytesPerOp:  v.bytes,
			})
		}
	}
	cfg.printf("\n")
	if jsonOut != nil {
		if err := s.WriteJSON(jsonOut); err != nil {
			cfg.printf("wire: JSON export failed: %v\n", err)
		}
	}
}
