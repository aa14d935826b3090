package core

import (
	"hamband/internal/broadcast"
	"hamband/internal/rdma"
)

// Read-only introspection accessors consumed by the health layer (package
// health). All of them copy or summarize private state without touching
// protocol scheduling: collecting a snapshot costs no virtual time and
// leaves every schedule — and hence every chaos trace hash — unchanged.

// Receiver exposes the replica's broadcast receiver for per-source ring
// health (occupancy, torn streaks, parked floors). It is nil for a class
// without irreducible conflict-free methods; its Rings are then empty.
func (r *Replica) Receiver() *broadcast.Receiver { return r.rx }

// EpochFloors returns copies of the per-source slot-adoption epoch floors:
// min is the active floor per source, pending the parked floor awaiting a
// clean summary-scan pass (zero where nothing is parked).
func (r *Replica) EpochFloors() (min, pending []uint32) {
	return append([]uint32(nil), r.minEpochs...), append([]uint32(nil), r.pendingMinEpochs...)
}

// StaleSlotRejects returns how many summary-slot reads the epoch floors
// have rejected at this replica.
func (r *Replica) StaleSlotRejects() uint64 { return r.statStaleSlots }

// AnchorAge returns the maximum δ-log age across the replica's delta
// groups: how many δ-records the most-stale group has appended since its
// last full-state anchor. Zero when δ-summarization is off — a freshly
// anchored log and a disabled one are equally un-stale.
func (r *Replica) AnchorAge() int {
	age := 0
	for g := range r.deltaW {
		if a := r.deltaW[g].sinceAnchor; a > age {
			age = a
		}
	}
	return age
}

// GroupCount returns the number of synchronization groups the replica
// participates in.
func (r *Replica) GroupCount() int { return len(r.groups) }

// Suspects returns the peers this replica's failure-detection view
// currently suspects, ascending. Nil with an empty suspicion set.
func (r *Replica) Suspects() []int {
	var out []int
	for p := 0; p < r.cluster.Fab.Size(); p++ {
		peer := rdma.NodeID(p)
		if peer == r.node.ID() {
			continue
		}
		if r.suspected(peer) {
			out = append(out, p)
		}
	}
	return out
}

// Down reports whether the replica's node is currently suspended or
// crashed — the fault injector's view, surfaced so health snapshots can
// label expected lag.
func (r *Replica) Down() bool { return r.node.Suspended() || r.node.Crashed() }
