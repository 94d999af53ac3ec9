package ebl

import (
	"vanetsim/internal/geom"
	"vanetsim/internal/mobility"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// BrakeStatus is the content of one extended-brake-light message: the
// lead vehicle's state at transmission time, which is what a following
// vehicle's automation would act on.
type BrakeStatus struct {
	// Vehicle is the sender.
	Vehicle packet.NodeID
	// At is the sampling time.
	At sim.Time
	// Braking reports whether the brakes are applied (true for the
	// Braking phase; a Stopped vehicle reports true as well — its lights
	// are on).
	Braking bool
	// SpeedMS is the instantaneous speed.
	SpeedMS float64
	// Position is the sender's location.
	Position geom.Vec2
}

var _ packet.Payload = (*BrakeStatus)(nil)

// ClonePayload implements packet.Payload.
func (b *BrakeStatus) ClonePayload() packet.Payload {
	c := *b
	return &c
}

// ClonePayloadOnto implements packet.ReusablePayload.
func (b *BrakeStatus) ClonePayloadOnto(old packet.Payload) (packet.Payload, bool) {
	if o, ok := old.(*BrakeStatus); ok {
		*o = *b
		return o, true
	}
	return nil, false
}

// statusSampler builds a BrakeStatus provider bound to a vehicle. It
// rewrites the status a recycled packet carried, when there is one, rather
// than allocating a new one.
func statusSampler(sched *sim.Scheduler, v *mobility.Vehicle) func(reuse packet.Payload) packet.Payload {
	return func(reuse packet.Payload) packet.Payload {
		b, ok := reuse.(*BrakeStatus)
		if !ok {
			b = new(BrakeStatus)
		}
		*b = BrakeStatus{
			Vehicle:  v.ID(),
			At:       sched.Now(),
			Braking:  v.Phase().Communicating(),
			SpeedMS:  v.Speed(),
			Position: v.Position(),
		}
		return b
	}
}
