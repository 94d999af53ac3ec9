package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"vanetsim/internal/geom"
	"vanetsim/internal/sim"
)

func TestVehicleInitialState(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(10, 20))
	if v.Phase() != Stopped {
		t.Fatalf("initial phase = %v, want stopped", v.Phase())
	}
	if v.Position() != geom.V(10, 20) {
		t.Fatalf("initial position = %v", v.Position())
	}
	if v.Speed() != 0 {
		t.Fatalf("initial speed = %v", v.Speed())
	}
	if v.ID() != 1 {
		t.Fatalf("ID = %v", v.ID())
	}
}

func TestSetDestArrivesExactly(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(0, 0))
	v.SetDest(geom.V(0, 100), 20) // 100 m at 20 m/s = 5 s
	if v.Phase() != Moving {
		t.Fatalf("phase = %v, want moving", v.Phase())
	}
	s.RunUntil(2.5)
	if got := v.Position(); !got.ApproxEqual(geom.V(0, 50), 1e-9) {
		t.Fatalf("midway position = %v, want (0,50)", got)
	}
	if math.Abs(v.Speed()-20) > 1e-9 {
		t.Fatalf("cruise speed = %v, want 20", v.Speed())
	}
	s.RunUntil(10)
	if got := v.Position(); !got.ApproxEqual(geom.V(0, 100), 1e-9) {
		t.Fatalf("final position = %v, want (0,100)", got)
	}
	if v.Phase() != Stopped || v.Speed() != 0 {
		t.Fatalf("vehicle did not stop at destination: phase=%v speed=%v", v.Phase(), v.Speed())
	}
}

func TestSetDestEvents(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(0, 0))
	var events []Event
	v.Subscribe(func(e Event) { events = append(events, e) })
	v.SetDest(geom.V(30, 40), 10) // 50 m at 10 m/s
	s.Run()
	if len(events) != 2 {
		t.Fatalf("got %d events, want departed+stopped", len(events))
	}
	if events[0].Type != EventDeparted || events[0].At != 0 {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[1].Type != EventStopped || events[1].At != 5 {
		t.Fatalf("second event = %+v", events[1])
	}
	if events[1].Vehicle != v {
		t.Fatal("event should carry the vehicle")
	}
}

func TestSetDestToCurrentPosition(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(5, 5))
	v.SetDest(geom.V(5, 5), 10)
	if v.Phase() != Stopped {
		t.Fatalf("phase = %v, want stopped", v.Phase())
	}
	s.Run()
	if v.Position() != geom.V(5, 5) {
		t.Fatalf("position = %v", v.Position())
	}
}

func TestSetDestRedirectionMidway(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(0, 0))
	v.SetDest(geom.V(0, 100), 10)
	s.RunUntil(5) // at (0, 50)
	v.SetDest(geom.V(100, 50), 10)
	s.Run()
	if got := v.Position(); !got.ApproxEqual(geom.V(100, 50), 1e-9) {
		t.Fatalf("redirected position = %v, want (100,50)", got)
	}
	// The original arrival event must not fire a phantom stop at (0,100).
	if v.Phase() != Stopped {
		t.Fatalf("phase = %v", v.Phase())
	}
}

func TestBrakeKinematics(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(0, 0))
	v.SetDest(geom.V(0, 10000), 22.4) // paper speed: 50 mph
	s.RunUntil(10)
	v.Brake(4) // 22.4 m/s at 4 m/s² -> stops in 5.6 s over 62.72 m
	if v.Phase() != Braking {
		t.Fatalf("phase = %v, want braking", v.Phase())
	}
	posAtBrake := v.Position()
	s.RunUntil(10 + 2.8) // halfway through braking: speed should be 11.2
	if math.Abs(v.Speed()-11.2) > 1e-9 {
		t.Fatalf("speed mid-brake = %v, want 11.2", v.Speed())
	}
	s.Run()
	if v.Phase() != Stopped || v.Speed() != 0 {
		t.Fatalf("did not stop: phase=%v speed=%v", v.Phase(), v.Speed())
	}
	stopDist := v.Position().Dist(posAtBrake)
	want := brakingDistance(22.4, 4)
	if math.Abs(stopDist-want) > 1e-6 {
		t.Fatalf("stopping distance = %v, want %v", stopDist, want)
	}
}

func TestBrakeWhileStoppedIsNoop(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(0, 0))
	var events []Event
	v.Subscribe(func(e Event) { events = append(events, e) })
	v.Brake(4)
	if len(events) != 0 || v.Phase() != Stopped {
		t.Fatal("braking while stopped should do nothing")
	}
}

func TestHalt(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(0, 0))
	v.SetDest(geom.V(0, 100), 10)
	s.RunUntil(3)
	v.Halt()
	if v.Phase() != Stopped || v.Speed() != 0 {
		t.Fatal("Halt did not stop vehicle")
	}
	pos := v.Position()
	s.Run()
	if v.Position() != pos {
		t.Fatal("vehicle moved after Halt")
	}
}

func TestPositionHistory(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(0, 0))
	v.SetDest(geom.V(0, 100), 10)
	s.Run()
	// Query past positions after the fact.
	if got := v.PositionAt(5); !got.ApproxEqual(geom.V(0, 50), 1e-9) {
		t.Fatalf("PositionAt(5) = %v, want (0,50)", got)
	}
	if got := v.PositionAt(0); got != geom.V(0, 0) {
		t.Fatalf("PositionAt(0) = %v", got)
	}
}

func TestBrakingDistance(t *testing.T) {
	if got := brakingDistance(20, 5); got != 40 {
		t.Fatalf("BrakingDistance = %v, want 40", got)
	}
	if !math.IsInf(brakingDistance(20, 0), 1) {
		t.Fatal("zero decel should give infinite distance")
	}
}

func TestPanics(t *testing.T) {
	s := sim.New()
	v := NewVehicle(1, s, geom.V(0, 0))
	for name, fn := range map[string]func(){
		"SetDest zero speed": func() { v.SetDest(geom.V(1, 1), 0) },
		"Brake zero decel": func() {
			v.SetDest(geom.V(0, 100), 10)
			v.Brake(0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPlatoonGeometry(t *testing.T) {
	s := sim.New()
	p := NewPlatoon(s, 0, 3, geom.V(0, 0), geom.V(0, 1), 25)
	if p.Len() != 3 || p.Spacing() != 25 {
		t.Fatalf("platoon misconfigured: len=%d spacing=%v", p.Len(), p.Spacing())
	}
	want := []geom.Vec2{geom.V(0, 0), geom.V(0, -25), geom.V(0, -50)}
	for i, v := range p.Vehicles() {
		if !v.Position().ApproxEqual(want[i], 1e-9) {
			t.Fatalf("vehicle %d at %v, want %v", i, v.Position(), want[i])
		}
	}
	if p.Lead().ID() != 0 || p.Followers()[0].ID() != 1 || p.Followers()[1].ID() != 2 {
		t.Fatal("platoon IDs not consecutive from firstID")
	}
}

func TestPlatoonConvoyMotion(t *testing.T) {
	s := sim.New()
	p := NewPlatoon(s, 0, 3, geom.V(0, -100), geom.V(0, 1), 25)
	p.SetDest(geom.V(0, 0), 22.4)
	s.Run()
	// Convoy geometry preserved at the destination.
	want := []geom.Vec2{geom.V(0, 0), geom.V(0, -25), geom.V(0, -50)}
	for i, v := range p.Vehicles() {
		if !v.Position().ApproxEqual(want[i], 1e-6) {
			t.Fatalf("vehicle %d at %v, want %v", i, v.Position(), want[i])
		}
		if v.Phase() != Stopped {
			t.Fatalf("vehicle %d phase = %v", i, v.Phase())
		}
	}
	if !p.Communicating() {
		t.Fatal("stopped platoon should be communicating")
	}
}

func TestPlatoonSpacingPreservedWhileMoving(t *testing.T) {
	s := sim.New()
	p := NewPlatoon(s, 0, 3, geom.V(0, -200), geom.V(0, 1), 25)
	p.SetDest(geom.V(0, 0), 20)
	s.RunUntil(4)
	lead, mid := p.Vehicles()[0], p.Vehicles()[1]
	if d := lead.Position().Dist(mid.Position()); math.Abs(d-25) > 1e-9 {
		t.Fatalf("spacing while moving = %v, want 25", d)
	}
}

func TestPlatoonPanics(t *testing.T) {
	s := sim.New()
	for name, fn := range map[string]func(){
		"empty":        func() { NewPlatoon(s, 0, 0, geom.V(0, 0), geom.V(0, 1), 25) },
		"zero heading": func() { NewPlatoon(s, 0, 2, geom.V(0, 0), geom.V(0, 0), 25) },
		"neg spacing":  func() { NewPlatoon(s, 0, 2, geom.V(0, 0), geom.V(0, 1), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPhaseStrings(t *testing.T) {
	if Stopped.String() != "stopped" || Moving.String() != "moving" || Braking.String() != "braking" {
		t.Fatal("phase names wrong")
	}
	if !Stopped.Communicating() || !Braking.Communicating() || Moving.Communicating() {
		t.Fatal("Communicating rule wrong")
	}
	if EventDeparted.String() != "departed" || EventBrakeStart.String() != "brake-start" || EventStopped.String() != "stopped" {
		t.Fatal("event names wrong")
	}
}

// Property: position is continuous across segment boundaries — sampling
// the trajectory densely never shows a jump larger than speed*dt.
func TestNoTeleportProperty(t *testing.T) {
	f := func(destX, destY int8, speedRaw uint8) bool {
		speed := float64(speedRaw%30) + 1
		s := sim.New()
		v := NewVehicle(1, s, geom.V(0, 0))
		dest := geom.V(float64(destX), float64(destY))
		travel := geom.V(0, 0).Dist(dest)/speed + 1
		v.SetDest(dest, speed)
		s.Run()
		const dt = 0.05
		prev := v.PositionAt(0)
		for ts := dt; ts < travel; ts += dt {
			cur := v.PositionAt(sim.Time(ts))
			if cur.Dist(prev) > speed*dt+1e-9 {
				return false
			}
			prev = cur
		}
		return v.PositionAt(sim.Time(travel)).ApproxEqual(dest, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: speed never exceeds the commanded cruise speed during a
// SetDest manoeuvre, and braking monotonically decreases speed.
func TestSpeedBoundsProperty(t *testing.T) {
	f := func(speedRaw, decelRaw uint8) bool {
		speed := float64(speedRaw%40) + 1
		decel := float64(decelRaw%8) + 1
		s := sim.New()
		v := NewVehicle(1, s, geom.V(0, 0))
		v.SetDest(geom.V(0, 1e6), speed)
		s.RunUntil(5)
		v.Brake(decel)
		prevSpeed := v.Speed()
		if prevSpeed > speed+1e-9 {
			return false
		}
		for !s.Stopped() && v.Phase() == Braking {
			if !s.Step() {
				break
			}
			cur := v.Speed()
			if cur > prevSpeed+1e-9 {
				return false
			}
			prevSpeed = cur
		}
		return v.Speed() <= speed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// brakingDistance returns the distance, in metres, a vehicle travelling at
// speed m/s needs to stop at decel m/s²: v²/2a. It is the closed-form
// oracle the braking motion is checked against.
func brakingDistance(speed, decel float64) float64 {
	if decel <= 0 {
		return math.Inf(1)
	}
	return speed * speed / (2 * decel)
}
