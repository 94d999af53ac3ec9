package queue

import (
	"math"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// REDConfig holds Random Early Detection parameters (Floyd & Jacobson
// 1993, with ns-2's defaults: minthresh 5, maxthresh 15, q_weight 0.002,
// linterm 10 → maxP 0.1).
type REDConfig struct {
	// MinThresh and MaxThresh bound the early-drop region, in packets of
	// average queue length.
	MinThresh, MaxThresh float64
	// Weight is the EWMA gain for the average queue estimate.
	Weight float64
	// MaxP is the drop probability as the average reaches MaxThresh.
	MaxP float64
}

// DefaultREDConfig returns ns-2's RED defaults.
func DefaultREDConfig() REDConfig {
	return REDConfig{MinThresh: 5, MaxThresh: 15, Weight: 0.002, MaxP: 0.1}
}

// RED is a random-early-detection queue: it drops arriving packets
// probabilistically once the *average* occupancy exceeds a threshold,
// keeping the standing queue — and with it the paper's steady-state
// queueing delay — short. The paper fixed drop-tail; RED is the ablation
// that shows how much of the measured delay is that choice.
//
// Routing-protocol packets bypass early drop (they are never the cause of
// congestion here and losing them stalls everything), but still respect
// the hard capacity.
type RED struct {
	cfg    REDConfig
	items  ring
	rng    *sim.RNG
	onDrop DropFn

	avg   float64
	count int // packets since the last early drop
	drops int
}

var _ Queue = (*RED)(nil)

// NewRED returns a RED queue with hard capacity and the given parameters.
func NewRED(capacity int, cfg REDConfig, rng *sim.RNG, onDrop DropFn) *RED {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	if cfg.MinThresh <= 0 || cfg.MaxThresh <= cfg.MinThresh || cfg.Weight <= 0 || cfg.Weight > 1 || cfg.MaxP <= 0 || cfg.MaxP > 1 {
		panic("queue: invalid RED parameters")
	}
	if rng == nil {
		panic("queue: RED needs a random source")
	}
	return &RED{cfg: cfg, items: newRing(capacity), rng: rng, onDrop: onDrop, count: -1}
}

// AvgQueue returns the current EWMA queue-length estimate.
func (q *RED) AvgQueue() float64 { return q.avg }

// Enqueue implements Queue.
func (q *RED) Enqueue(p *packet.Packet) bool {
	q.avg = (1-q.cfg.Weight)*q.avg + q.cfg.Weight*float64(q.items.n)
	if q.items.n >= q.items.cap {
		q.drop(p, DropFull)
		return false
	}
	if !p.Type.IsControl() && q.earlyDrop() {
		q.drop(p, DropEarly)
		return false
	}
	q.items.push(p)
	if q.count >= 0 {
		q.count++
	}
	return true
}

// earlyDrop applies the RED drop decision against the average occupancy.
func (q *RED) earlyDrop() bool {
	switch {
	case q.avg < q.cfg.MinThresh:
		q.count = -1
		return false
	case q.avg >= q.cfg.MaxThresh:
		q.count = 0
		return true
	default:
		if q.count < 0 {
			q.count = 0
		}
		pb := q.cfg.MaxP * (q.avg - q.cfg.MinThresh) / (q.cfg.MaxThresh - q.cfg.MinThresh)
		// Spread drops uniformly: pa = pb / (1 - count·pb).
		pa := pb / math.Max(1-float64(q.count)*pb, 1e-9)
		if q.rng.Float64() < pa {
			q.count = 0
			return true
		}
		return false
	}
}

// Dequeue implements Queue.
func (q *RED) Dequeue() *packet.Packet { return q.items.pop() }

// Peek implements Queue.
func (q *RED) Peek() *packet.Packet { return q.items.peek() }

// Len implements Queue.
func (q *RED) Len() int { return q.items.n }

// Cap implements Queue.
func (q *RED) Cap() int { return q.items.cap }

// Drops implements Queue.
func (q *RED) Drops() int { return q.drops }

func (q *RED) drop(p *packet.Packet, r DropReason) {
	q.drops++
	if q.onDrop != nil {
		q.onDrop(p, r)
	}
}
