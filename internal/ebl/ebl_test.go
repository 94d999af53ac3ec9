package ebl_test

import (
	"math"
	"testing"

	"vanetsim/internal/ebl"
	"vanetsim/internal/geom"
	"vanetsim/internal/mobility"
	"vanetsim/internal/netlayer"
	"vanetsim/internal/packet"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
	"vanetsim/internal/trace"
)

// rig builds a stopped 3-vehicle platoon with full 802.11 stacks and EBL
// comms at the given rate.
func rig(t *testing.T, tracer *trace.Collector) (*scenario.World, *mobility.Platoon, *ebl.PlatoonComms) {
	t.Helper()
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 3)
	p := mobility.NewPlatoon(w.Sched, 0, 3, geom.V(0, 0), geom.V(0, 1), 25)
	nets := make([]*netlayer.Net, 0, p.Len())
	for _, v := range p.Vehicles() {
		nets = append(nets, w.AddNode(v.ID(), v.Position).Net)
	}
	cfg := ebl.DefaultCommsConfig()
	cfg.RateBps = 400_000
	comms := ebl.NewPlatoonComms(w.Sched, p, nets, w.PF, cfg, tracer)
	return w, p, comms
}

func TestStoppedPlatoonCommunicates(t *testing.T) {
	w, _, comms := rig(t, nil)
	if !comms.Communicating() {
		t.Fatal("stopped platoon should communicate from t=0")
	}
	w.Sched.RunUntil(5)
	for _, f := range comms.Flows() {
		if f.Delays.Len() == 0 {
			t.Fatalf("flow to %v received nothing", f.Receiver)
		}
	}
	if comms.Throughput().TotalBytes() == 0 {
		t.Fatal("no platoon throughput recorded")
	}
}

func TestFlowsTargetFollowers(t *testing.T) {
	_, p, comms := rig(t, nil)
	flows := comms.Flows()
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want one per follower", len(flows))
	}
	if flows[0].Receiver != p.Followers()[0].ID() || flows[1].Receiver != p.Followers()[1].ID() {
		t.Fatal("flow receivers out of order")
	}
	if comms.Flow(p.Followers()[1].ID()) != flows[1] {
		t.Fatal("Flow lookup broken")
	}
	if comms.Flow(99) != nil {
		t.Fatal("Flow lookup for unknown receiver should be nil")
	}
}

func TestCommunicationFollowsPhase(t *testing.T) {
	w, p, comms := rig(t, nil)
	w.Sched.RunUntil(5)
	received := comms.Flows()[0].Delays.Len()
	if received == 0 {
		t.Fatal("setup: no traffic while stopped")
	}
	// Drive off: silence (after the in-flight drain).
	p.SetDest(geom.V(0, 10000), 22.4)
	if comms.Communicating() {
		t.Fatal("moving platoon should not communicate")
	}
	w.Sched.RunUntil(10)
	quiet := comms.Flows()[0].Delays.Len()
	w.Sched.RunUntil(40)
	if got := comms.Flows()[0].Delays.Len(); got != quiet {
		t.Fatalf("traffic while moving: %d -> %d packets", quiet, got)
	}
	// Brake: communication resumes (this is the whole point of EBL).
	p.Brake(4)
	if !comms.Communicating() {
		t.Fatal("braking platoon must communicate")
	}
	w.Sched.RunUntil(60)
	if got := comms.Flows()[0].Delays.Len(); got <= quiet {
		t.Fatal("no traffic after brake event")
	}
}

func TestBrakeEventLatencyMeasured(t *testing.T) {
	// The first packet after a brake event is the paper's safety-critical
	// measurement; under 802.11 it must arrive within tens of ms. Build
	// the platoon already moving so the application starts silent.
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 3)
	p := mobility.NewPlatoon(w.Sched, 0, 3, geom.V(0, 0), geom.V(0, 1), 25)
	nets := make([]*netlayer.Net, 0, p.Len())
	for _, v := range p.Vehicles() {
		nets = append(nets, w.AddNode(v.ID(), v.Position).Net)
	}
	p.SetDest(geom.V(0, 10000), 22.4)
	cfg := ebl.DefaultCommsConfig()
	cfg.RateBps = 400_000
	comms := ebl.NewPlatoonComms(w.Sched, p, nets, w.PF, cfg, nil)
	w.Sched.RunUntil(5)
	if comms.Flows()[0].Delays.Len() != 0 {
		t.Fatal("traffic while cruising")
	}
	p.Brake(4)
	w.Sched.RunUntil(10)
	first, ok := comms.Flows()[0].Delays.First()
	if !ok {
		t.Fatal("no brake-status packet delivered")
	}
	if first > 0.05 {
		t.Fatalf("first brake indication took %v, want well under 50 ms on 802.11", first)
	}
}

func TestTraceRecordsAgentEvents(t *testing.T) {
	tracer := trace.NewCollector(nil)
	w, _, _ := rig(t, tracer)
	w.Sched.RunUntil(2)
	recs := tracer.Records()
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	// The offline analysis on these records must agree with the online
	// delay bookkeeping.
	byFlow := trace.OneWayDelays(recs)
	if len(byFlow) != 2 {
		t.Fatalf("trace has %d flows, want 2", len(byFlow))
	}
	for k, s := range byFlow {
		if s.Len() == 0 {
			t.Fatalf("flow %+v empty in trace analysis", k)
		}
		for _, pt := range s.Points() {
			if pt.Delay <= 0 {
				t.Fatalf("non-positive delay in trace analysis: %+v", pt)
			}
		}
	}
}

func TestOnlineAndTraceDelaysAgree(t *testing.T) {
	tracer := trace.NewCollector(nil)
	w, p, comms := rig(t, tracer)
	w.Sched.RunUntil(5)
	byFlow := trace.OneWayDelays(tracer.Records())
	mid := p.Followers()[0].ID()
	var fromTrace *trace.FlowKey
	for k := range byFlow {
		if k.Dst == mid {
			k := k
			fromTrace = &k
		}
	}
	if fromTrace == nil {
		t.Fatal("middle-vehicle flow missing from trace")
	}
	online := comms.Flow(mid).Delays
	offline := byFlow[*fromTrace]
	if online.Len() != offline.Len() {
		t.Fatalf("online %d vs offline %d measurements", online.Len(), offline.Len())
	}
	op, fp := online.Points(), offline.Points()
	for i := range op {
		if math.Abs(float64(op[i].Delay-fp[i].Delay)) > 1e-9 {
			t.Fatalf("delay %d disagrees: online %v, trace %v", i, op[i].Delay, fp[i].Delay)
		}
	}
}

func TestAnalyze(t *testing.T) {
	a := ebl.Analyze(0.24, 22.4, 25, 0, 0)
	if math.Abs(a.DistanceBeforeNotice-5.376) > 1e-9 {
		t.Fatalf("distance = %v, want 5.376 (paper: ~5.38 m)", a.DistanceBeforeNotice)
	}
	if math.Abs(a.FractionOfSeparation-0.21504) > 1e-9 {
		t.Fatalf("fraction = %v, want ~21.5%% (paper: over 20%%)", a.FractionOfSeparation)
	}
	if a.BrakingDistance != 0 || a.TotalStopDistance != a.DistanceBeforeNotice {
		t.Fatalf("no-braking analysis wrong: %+v", a)
	}
}

func TestAnalyzeWithBrakingModel(t *testing.T) {
	// 22.4 m/s, 8 m/s² hard braking: v²/2a = 31.36 m. With notification
	// delay and reaction, 25 m separation is insufficient.
	a := ebl.Analyze(0.018, 22.4, 25, 8, 0.7)
	if math.Abs(a.BrakingDistance-31.36) > 1e-9 {
		t.Fatalf("braking distance = %v", a.BrakingDistance)
	}
	if a.Sufficient {
		t.Fatal("25 m at 50 mph cannot be sufficient with realistic braking")
	}
	want := 22.4*0.018 + 22.4*0.7 + 31.36
	if math.Abs(a.TotalStopDistance-want) > 1e-9 {
		t.Fatalf("total = %v, want %v", a.TotalStopDistance, want)
	}
}

func TestPaperAnalysisTrialContrast(t *testing.T) {
	tdma := ebl.PaperAnalysis(0.24)
	dcf := ebl.PaperAnalysis(0.018)
	if tdma.FractionOfSeparation < 0.20 {
		t.Fatalf("TDMA fraction = %v, paper says over 20%%", tdma.FractionOfSeparation)
	}
	if dcf.FractionOfSeparation > 0.02 {
		t.Fatalf("802.11 fraction = %v, paper says under 2%%", dcf.FractionOfSeparation)
	}
}

func TestMPHConversion(t *testing.T) {
	if ms := ebl.MPHToMS(50); math.Abs(ms-22.352) > 1e-9 {
		t.Fatalf("50 mph = %v m/s", ms)
	}
}

func TestNewPlatoonCommsValidation(t *testing.T) {
	w := scenario.NewWorld(scenario.DefaultStackConfig(scenario.MAC80211), 3)
	p := mobility.NewPlatoon(w.Sched, 0, 2, geom.V(0, 0), geom.V(0, 1), 25)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched nets did not panic")
		}
	}()
	ebl.NewPlatoonComms(w.Sched, p, nil, w.PF, ebl.DefaultCommsConfig(), nil)
}

func TestBrakeStatusPayloadOnEveryPacket(t *testing.T) {
	w, p, comms := rig(t, nil)
	lead := p.Lead()
	var statuses []ebl.BrakeStatus
	comms.OnDeliver(func(_ *ebl.Flow, pkt *packet.Packet, _ sim.Time) {
		st, ok := pkt.Payload.(*ebl.BrakeStatus)
		if !ok {
			t.Fatalf("packet %v carries no brake status", pkt)
		}
		statuses = append(statuses, *st) // valid only for the call: copy
	})
	w.Sched.RunUntil(3)
	if len(statuses) == 0 {
		t.Fatal("no statuses observed")
	}
	for _, st := range statuses {
		if st.Vehicle != lead.ID() {
			t.Fatalf("status from %v, want the lead", st.Vehicle)
		}
		if !st.Braking {
			t.Fatal("stopped lead should report brake lights on")
		}
		if st.SpeedMS != 0 {
			t.Fatalf("stopped lead speed = %v", st.SpeedMS)
		}
		if st.At < 0 || st.At > 3 {
			t.Fatalf("status timestamp %v outside the run", st.At)
		}
	}
}

func TestBrakeStatusClone(t *testing.T) {
	orig := &ebl.BrakeStatus{Vehicle: 3, SpeedMS: 10, Braking: true}
	cp := orig.ClonePayload().(*ebl.BrakeStatus)
	cp.SpeedMS = 99
	if orig.SpeedMS != 10 {
		t.Fatal("clone aliases the original")
	}
}
