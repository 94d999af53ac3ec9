package app

import (
	"vanetsim/internal/sim"
)

// ByteSender is the transport write interface applications drive: both
// tcp.Sender and UDPSource satisfy it (ns-2 lets Application/Traffic/CBR
// attach to either agent the same way).
type ByteSender interface {
	SendBytes(n int)
}

// CBR generates packetSize-byte writes at a constant bit rate while
// started. The paper's scenario attaches a CBR generator to each TCP flow;
// the platoon's braking/stopped phases start and stop it.
type CBR struct {
	sched *sim.Scheduler
	tr    ByteSender

	packetSize int
	interval   sim.Time

	running bool
	timer   sim.Timer
	ticks   int
	tickFn  func() // tick, bound once: a method value per tick allocates
}

// NewCBR creates a generator producing packetSize bytes every
// packetSize*8/rateBps seconds once started.
func NewCBR(sched *sim.Scheduler, tr ByteSender, packetSize int, rateBps float64) *CBR {
	if packetSize <= 0 || rateBps <= 0 {
		panic("app: CBR needs positive packet size and rate")
	}
	c := &CBR{
		sched:      sched,
		tr:         tr,
		packetSize: packetSize,
		interval:   sim.Time(float64(packetSize) * 8 / rateBps),
	}
	c.tickFn = c.tick
	return c
}

// Interval returns the inter-packet gap.
func (c *CBR) Interval() sim.Time { return c.interval }

// Ticks returns how many writes the generator has produced.
func (c *CBR) Ticks() int { return c.ticks }

// Running reports whether the generator is active.
func (c *CBR) Running() bool { return c.running }

// Start begins generation immediately (first write now). Idempotent.
func (c *CBR) Start() {
	if c.running {
		return
	}
	c.running = true
	c.tick()
}

// Stop halts generation. Idempotent.
func (c *CBR) Stop() {
	if !c.running {
		return
	}
	c.running = false
	c.timer.Cancel()
	c.timer = sim.Timer{}
}

func (c *CBR) tick() {
	if !c.running {
		return
	}
	c.ticks++
	c.tr.SendBytes(c.packetSize)
	c.timer = c.sched.ScheduleKind(sim.KindApp, c.interval, c.tickFn)
}
