// Package mobility models vehicle motion for the EBL scenario: platoons of
// vehicles that cruise at a fixed speed, brake, stop, and depart.
//
// Motion is represented as piecewise constant-acceleration segments that
// are evaluated lazily — the simulator never ticks positions forward; a
// radio asks a vehicle where it is at transmission time and gets the exact
// kinematic answer. Phase changes (brake start, full stop, departure,
// arrival) are discrete events published to subscribers; the EBL
// application keys its communicate-only-while-braking-or-stopped rule off
// them, as the paper's scenario requires.
package mobility

import (
	"fmt"
	"sort"

	"vanetsim/internal/geom"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// Phase is a vehicle's motion state. The paper's EBL rule is that vehicles
// communicate only while Braking or Stopped.
type Phase uint8

// Vehicle phases.
const (
	Stopped Phase = iota
	Moving
	Braking
)

var phaseNames = [...]string{"stopped", "moving", "braking"}

// String returns the lowercase phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Communicating reports whether the EBL application transmits in this
// phase (braking or stopped, per the paper's scenario definition).
func (p Phase) Communicating() bool { return p == Braking || p == Stopped }

// EventType classifies a motion event.
type EventType uint8

// Motion event types.
const (
	EventDeparted   EventType = iota // vehicle started moving
	EventBrakeStart                  // vehicle began braking
	EventStopped                     // vehicle came to a full stop
)

var eventNames = [...]string{"departed", "brake-start", "stopped"}

// String returns the event name.
func (e EventType) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Event is a discrete motion event delivered to subscribers.
type Event struct {
	Type    EventType
	At      sim.Time
	Vehicle *Vehicle
}

// segment is one constant-acceleration piece of a trajectory, valid from
// start until the next segment's start.
type segment struct {
	start sim.Time
	geom.Kinematics
}

func (s segment) at(t sim.Time) geom.Vec2    { return s.At(float64(t - s.start)) }
func (s segment) velAt(t sim.Time) geom.Vec2 { return s.VelAt(float64(t - s.start)) }

// Vehicle is a single mobile node. Create vehicles with NewVehicle; the
// zero value is not usable.
type Vehicle struct {
	id    packet.NodeID
	sched *sim.Scheduler
	segs  []segment
	phase Phase

	pending   sim.Timer // arrival/stop event for the current manoeuvre
	listeners []func(Event)
	// motionHooks fire after every trajectory change (any pushSegment),
	// including phase-preserving ones like redirecting a moving vehicle.
	// The PHY's spatial index keys its cell-staleness bounds off the
	// current segment, so it must hear about every segment replacement,
	// not just the phase transitions Subscribe reports.
	motionHooks []func()
}

// NewVehicle creates a stationary vehicle at pos.
func NewVehicle(id packet.NodeID, sched *sim.Scheduler, pos geom.Vec2) *Vehicle {
	v := &Vehicle{id: id, sched: sched, phase: Stopped}
	v.segs = append(v.segs, segment{sched.Now(), geom.Kinematics{Pos: pos}})
	return v
}

// ID returns the vehicle's node ID.
func (v *Vehicle) ID() packet.NodeID { return v.id }

// Phase returns the current motion phase.
func (v *Vehicle) Phase() Phase { return v.phase }

// Subscribe registers fn to receive this vehicle's motion events.
func (v *Vehicle) Subscribe(fn func(Event)) {
	v.listeners = append(v.listeners, fn)
}

// OnMotionChange registers fn to be called whenever the vehicle's
// trajectory changes — every new constant-acceleration segment, whether or
// not the phase changed. Hooks run after the new segment is in place, so
// Motion sampled inside fn reflects the new trajectory.
func (v *Vehicle) OnMotionChange(fn func()) {
	v.motionHooks = append(v.motionHooks, fn)
}

func (v *Vehicle) notifyMotion() {
	for _, fn := range v.motionHooks {
		fn()
	}
}

// Motion returns the vehicle's current motion segment: its start time and
// the constant-acceleration law it follows from then on. Every segment
// starts at the simulated time it was made, and between OnMotionChange
// notifications the vehicle follows exactly this law, so the radio channel
// can compute the vehicle's position itself, bit-identical to Position,
// without asking again.
func (v *Vehicle) Motion() (start sim.Time, law geom.Kinematics) {
	s := v.segs[len(v.segs)-1]
	return s.start, s.Kinematics
}

func (v *Vehicle) publish(t EventType) {
	ev := Event{Type: t, At: v.sched.Now(), Vehicle: v}
	for _, fn := range v.listeners {
		fn(ev)
	}
}

// Position returns the vehicle's position at the current simulated time.
func (v *Vehicle) Position() geom.Vec2 { return v.PositionAt(v.sched.Now()) }

// PositionAt returns the position at time t, which may be any time since
// the vehicle was created (the full trajectory history is kept).
func (v *Vehicle) PositionAt(t sim.Time) geom.Vec2 {
	return v.segmentAt(t).at(t)
}

// Velocity returns the velocity vector at the current simulated time.
func (v *Vehicle) Velocity() geom.Vec2 {
	now := v.sched.Now()
	return v.segmentAt(now).velAt(now)
}

// Speed returns the scalar speed in m/s at the current simulated time.
func (v *Vehicle) Speed() float64 { return v.Velocity().Len() }

func (v *Vehicle) segmentAt(t sim.Time) segment {
	// Nearly every query is at the current simulated time, which the latest
	// segment covers; testing it first keeps the hot path free of the
	// binary search (and, being a pure read, free of any cached state that
	// concurrent position sampling would race on).
	if s := v.segs[len(v.segs)-1]; s.start <= t {
		return s
	}
	// Segments are appended in time order; find the last with start <= t.
	i := sort.Search(len(v.segs), func(i int) bool { return v.segs[i].start > t })
	if i == 0 {
		return v.segs[0] // t precedes creation; clamp to initial state
	}
	return v.segs[i-1]
}

func (v *Vehicle) pushSegment(s segment) {
	// Replace rather than append if a segment already starts at this time,
	// so repeated commands in one instant don't accumulate zero-length
	// segments.
	if n := len(v.segs); n > 0 && v.segs[n-1].start == s.start {
		v.segs[n-1] = s
	} else {
		v.segs = append(v.segs, s)
	}
	v.notifyMotion()
}

func (v *Vehicle) cancelPending() {
	v.pending.Cancel()
	v.pending = sim.Timer{}
}

// SetDest starts the vehicle moving in a straight line toward dest at the
// given constant speed, stopping exactly there — the ns-2 "setdest"
// primitive the paper's Tcl scenario uses. It publishes EventDeparted now
// and EventStopped on arrival. A dest equal to the current position stops
// the vehicle immediately. SetDest panics on non-positive speed.
func (v *Vehicle) SetDest(dest geom.Vec2, speed float64) {
	if speed <= 0 {
		panic("mobility: SetDest speed must be positive")
	}
	now := v.sched.Now()
	cur := v.PositionAt(now)
	v.cancelPending()
	dist := cur.Dist(dest)
	if dist == 0 {
		v.pushSegment(segment{now, geom.Kinematics{Pos: cur}})
		v.setPhase(Stopped)
		return
	}
	dir := dest.Sub(cur).Unit()
	v.pushSegment(segment{now, geom.Kinematics{Pos: cur, Vel: dir.Scale(speed)}})
	v.setPhase(Moving)
	travel := sim.Time(dist / speed)
	v.pending = v.sched.ScheduleKind(sim.KindMobility, travel, func() {
		v.pending = sim.Timer{}
		v.pushSegment(segment{v.sched.Now(), geom.Kinematics{Pos: dest}})
		v.setPhase(Stopped)
	})
}

// Brake decelerates the vehicle to a stop at decel m/s² along its current
// direction of travel. It publishes EventBrakeStart now and EventStopped
// when speed reaches zero. Braking while already stopped is a no-op.
// Brake panics on non-positive decel.
func (v *Vehicle) Brake(decel float64) {
	if decel <= 0 {
		panic("mobility: Brake decel must be positive")
	}
	now := v.sched.Now()
	vel := v.segmentAt(now).velAt(now)
	speed := vel.Len()
	if speed == 0 {
		return
	}
	v.cancelPending()
	cur := v.PositionAt(now)
	dir := vel.Unit()
	v.pushSegment(segment{now, geom.Kinematics{Pos: cur, Vel: vel, Acc: dir.Scale(-decel)}})
	v.setPhase(Braking)
	stopIn := sim.Time(speed / decel)
	v.pending = v.sched.ScheduleKind(sim.KindMobility, stopIn, func() {
		v.pending = sim.Timer{}
		stopPos := cur.Add(dir.Scale(speed * speed / (2 * decel)))
		v.pushSegment(segment{v.sched.Now(), geom.Kinematics{Pos: stopPos}})
		v.setPhase(Stopped)
	})
}

// Halt stops the vehicle instantaneously at its current position
// (publishing EventStopped if it was moving). It models the idealised
// stop-at-intersection of the paper's scenario when no braking dynamics
// are wanted.
func (v *Vehicle) Halt() {
	now := v.sched.Now()
	cur := v.PositionAt(now)
	v.cancelPending()
	v.pushSegment(segment{now, geom.Kinematics{Pos: cur}})
	v.setPhase(Stopped)
}

func (v *Vehicle) setPhase(p Phase) {
	if v.phase == p {
		return
	}
	v.phase = p
	switch p {
	case Moving:
		v.publish(EventDeparted)
	case Braking:
		v.publish(EventBrakeStart)
	case Stopped:
		v.publish(EventStopped)
	}
}
