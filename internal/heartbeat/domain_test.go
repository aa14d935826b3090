package heartbeat

import (
	"testing"

	"hamband/internal/rdma"
	"hamband/internal/sim"
)

func TestDomainFansOutToEverySubscriber(t *testing.T) {
	eng := sim.NewEngine(21)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	d := NewDomain(fab, DefaultConfig())
	defer d.Stop()

	// Two objects on node 1 (one without a restore callback) and one on
	// node 2 all hear about node 0 from their node's single detector.
	suspects := make([]int, 3)
	var restores int
	d.Subscribe(1, func(rdma.NodeID) { suspects[0]++ }, func(rdma.NodeID) { restores++ })
	d.Subscribe(1, func(rdma.NodeID) { suspects[1]++ }, nil)
	d.Subscribe(2, func(rdma.NodeID) { suspects[2]++ }, nil)

	eng.At(sim.Time(200*sim.Microsecond), func() { d.Beater(0).Suspend() })
	eng.At(sim.Time(1*sim.Millisecond), func() { d.Beater(0).Resume() })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	for i, n := range suspects {
		if n != 1 {
			t.Fatalf("subscriber %d saw %d suspicions, want 1", i, n)
		}
	}
	if restores != 1 {
		t.Fatalf("restores = %d, want 1", restores)
	}
	if d.Suspected(1, 0) || d.Suspected(2, 0) {
		t.Fatal("node 0 still suspected after its heartbeat resumed")
	}
}

func TestDomainForgetAndWatch(t *testing.T) {
	eng := sim.NewEngine(21)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	d := NewDomain(fab, DefaultConfig())
	defer d.Stop()

	eng.At(sim.Time(100*sim.Microsecond), func() { d.Beater(2).Suspend() })
	eng.RunUntil(sim.Time(500 * sim.Microsecond))
	if !d.Suspected(0, 2) || !d.Suspected(1, 2) {
		t.Fatal("silent node 2 not suspected")
	}
	d.Forget(2)
	eng.RunUntil(sim.Time(1 * sim.Millisecond))
	if d.Suspected(0, 2) || d.Suspected(1, 2) || !d.Detector(0).Ignored(2) {
		t.Fatal("a forgotten node is still watched or suspected")
	}
	d.Beater(2).Resume()
	d.Watch(2)
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if d.Suspected(0, 2) || d.Detector(1).Ignored(2) {
		t.Fatal("re-admitted node not watched from a clean slate")
	}
}
