package heartbeat

import "hamband/internal/rdma"

// Domain is the per-node failure-handling infrastructure: one heartbeat
// thread and one detector per node, shared by every replicated object on
// the fabric. A node hosting many objects is still one process: it beats
// once, is suspected once, and every replica on it fails together.
// Replicas subscribe to the domain instead of running detectors of their
// own, so N objects cost the same background heartbeat traffic as one.
//
// Every deployment runs on a Domain: a standalone core or SMR cluster
// builds and owns one, a store shares one across its shards.
type Domain struct {
	beaters   []*Beater
	detectors []*Detector
	subs      [][]domainSub // per observing node
}

// domainSub is one replica's suspicion callbacks on a node.
type domainSub struct {
	onSuspect, onRestore func(rdma.NodeID)
}

// NewDomain registers the heartbeat region on every node and starts one
// beater and one detector per node. Suspicion events fan out to every
// subscriber on the observing node.
func NewDomain(fab *rdma.Fabric, cfg Config) *Domain {
	n := fab.Size()
	d := &Domain{subs: make([][]domainSub, n)}
	for i := 0; i < n; i++ {
		Register(fab.Node(rdma.NodeID(i)))
	}
	for i := 0; i < n; i++ {
		i := i
		node := fab.Node(rdma.NodeID(i))
		d.beaters = append(d.beaters, NewBeater(fab.Engine(), node, cfg.BeatPeriod))
		det := NewDetector(fab, node, cfg)
		det.OnSuspect = func(peer rdma.NodeID) {
			for _, s := range d.subs[i] {
				s.onSuspect(peer)
			}
		}
		det.OnRestore = func(peer rdma.NodeID) {
			for _, s := range d.subs[i] {
				if s.onRestore != nil {
					s.onRestore(peer)
				}
			}
		}
		d.detectors = append(d.detectors, det)
	}
	return d
}

// Subscribe adds suspicion callbacks for a replica observing from node;
// onRestore may be nil.
func (d *Domain) Subscribe(node int, onSuspect, onRestore func(rdma.NodeID)) {
	d.subs[node] = append(d.subs[node], domainSub{onSuspect: onSuspect, onRestore: onRestore})
}

// Beater returns the node's heartbeat thread (nil on a nil domain, i.e.
// with failure handling off); suspending it injects the paper's failure
// mode for the whole node, every replica on it at once.
func (d *Domain) Beater(node int) *Beater {
	if d == nil {
		return nil
	}
	return d.beaters[node]
}

// Suspected reports whether node currently suspects peer (never, on a nil
// domain).
func (d *Domain) Suspected(node int, peer rdma.NodeID) bool {
	return d != nil && d.detectors[node].Suspected(peer)
}

// Detector returns the node's failure detector — the health layer reads
// its suspicion set; mutation stays with the domain.
func (d *Domain) Detector(node int) *Detector { return d.detectors[node] }

// Forget drops peer from every node's failure-detection view: a node that
// cleanly left the configuration is not failed, so suspicion of it clears
// immediately and no new suspicion is raised until Watch re-admits it.
func (d *Domain) Forget(peer rdma.NodeID) {
	for _, det := range d.detectors {
		det.Forget(peer)
	}
}

// Watch re-admits a forgotten peer on every node's detector (a join).
func (d *Domain) Watch(peer rdma.NodeID) {
	for _, det := range d.detectors {
		det.Watch(peer)
	}
}

// Stop cancels every beater and detector. Call after stopping the
// replicas subscribed to the domain.
func (d *Domain) Stop() {
	for _, b := range d.beaters {
		b.Stop()
	}
	for _, det := range d.detectors {
		det.Stop()
	}
}
