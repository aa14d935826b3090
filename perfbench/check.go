package main

import (
	"fmt"
	"math"
	"sort"

	"hamband/internal/core"
	"hamband/internal/spec"
)

// replicaSet is one replicated object as the correctness check reads it.
type replicaSet interface {
	State(p spec.ProcID) spec.State
	Applied(p spec.ProcID) spec.AppliedMap
	Live(p spec.ProcID) bool
}

// clusterSet reads a Hamband cluster.
type clusterSet struct{ c *core.Cluster }

func (s clusterSet) State(p spec.ProcID) spec.State        { return s.c.Replica(p).CurrentState() }
func (s clusterSet) Applied(p spec.ProcID) spec.AppliedMap { return s.c.Replica(p).Applied() }
func (s clusterSet) Live(p spec.ProcID) bool               { return !s.c.Replica(p).Down() }

// checkReplicas verifies the replicated outputs of a finished phase, object
// by object (shard by shard in a store): every live replica's state equals
// every other's, the class invariant holds at every replica, and every
// accepted update, and nothing else, is applied at every replica.
// accepted[o][src][u] counts the updates on method u that origin src had
// accepted on object o.
func checkReplicas(objs []replicaSet, accepted [][][]uint32, invariant func(spec.State) bool) error {
	for o, obj := range objs {
		var ref spec.State
		refProc := spec.ProcID(-1)
		for p := spec.ProcID(0); p < nodes; p++ {
			if !obj.Live(p) {
				continue
			}
			st := obj.State(p)
			if !invariant(st) {
				return fmt.Errorf("object %d: invariant fails at replica %d", o, p)
			}
			if ref == nil {
				ref, refProc = st, p
			} else if !st.Equal(ref) {
				return fmt.Errorf("object %d: replica %d diverges from replica %d", o, p, refProc)
			}
			applied := obj.Applied(p)
			for src, row := range accepted[o] {
				for u, want := range row {
					if got := applied[src][u]; got != want {
						return fmt.Errorf("object %d: replica %d applied %d of %d accepted calls on method %d from %d",
							o, p, got, want, u, src)
					}
				}
			}
		}
		if ref == nil {
			return fmt.Errorf("object %d: no live replica", o)
		}
	}
	return nil
}

// percentile is an exact nearest-rank percentile over every sample.
type percentile struct {
	value   float64 // µs of virtual time
	samples int
	beyond  int // samples strictly after the percentile's rank
}

// exactPercentile returns the p-th percentile of sorted samples (µs). A
// tail percentile must have at least ten samples beyond it, or it is
// reported as an error rather than as a number.
func exactPercentile(sorted []float64, p float64) (percentile, error) {
	n := len(sorted)
	if n == 0 {
		return percentile{}, fmt.Errorf("p%g: no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	pc := percentile{value: sorted[rank-1], samples: n, beyond: n - rank}
	if p > 50 && pc.beyond < 10 {
		return pc, fmt.Errorf("p%g of %d samples has only %d beyond it", p, n, pc.beyond)
	}
	return pc, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
