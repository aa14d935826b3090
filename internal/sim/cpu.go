package sim

// CPU models a single processing core of a simulated node. Work items are
// executed one at a time in FIFO order; each item occupies the core for its
// declared duration before its completion function runs.
//
// Charging protocol work (posting verbs, handling received messages,
// applying calls, polling buffers) as CPU busy time is what lets the
// simulator reproduce the paper's central effect: one-sided RDMA operations
// consume no CPU on the remote node, while two-sided messages consume CPU on
// both ends.
type CPU struct {
	eng       *Engine
	busyUntil Time
	queue     []cpuTask
	running   bool
	suspended bool
	busyTotal Duration
}

type cpuTask struct {
	cost Duration
	fn   func()
}

// NewCPU returns an idle CPU bound to e.
func NewCPU(e *Engine) *CPU { return &CPU{eng: e} }

// Submit enqueues a work item that occupies the core for cost and then runs
// fn. fn may be nil when only the busy time matters. A suspended CPU queues
// work but does not execute it until Resume.
func (c *CPU) Submit(cost Duration, fn func()) {
	if cost < 0 {
		cost = 0
	}
	c.queue = append(c.queue, cpuTask{cost: cost, fn: fn})
	c.kick()
}

// Exec is shorthand for Submit where fn runs after the busy period.
func (c *CPU) Exec(cost Duration, fn func()) { c.Submit(cost, fn) }

func (c *CPU) kick() {
	if c.running || c.suspended || len(c.queue) == 0 {
		return
	}
	c.running = true
	task := c.queue[0]
	c.queue = c.queue[1:]
	start := c.eng.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	end := start + Time(task.cost)
	c.busyUntil = end
	c.busyTotal += task.cost
	c.eng.At(end, func() {
		if task.fn != nil {
			task.fn()
		}
		c.running = false
		c.kick()
	})
}

// Suspend pauses execution of queued work. Items already dispatched to the
// engine complete; everything else waits for Resume. This models the paper's
// failure injection, which suspends a node's threads while its NIC keeps
// serving one-sided accesses.
func (c *CPU) Suspend() { c.suspended = true }

// Resume continues execution of queued work after Suspend.
func (c *CPU) Resume() {
	if !c.suspended {
		return
	}
	c.suspended = false
	c.kick()
}

// Suspended reports whether the CPU is suspended.
func (c *CPU) Suspended() bool { return c.suspended }

// BusyTotal reports the cumulative busy time charged to this core.
func (c *CPU) BusyTotal() Duration { return c.busyTotal }
