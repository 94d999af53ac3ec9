package vanetsim_test

import (
	"strings"
	"testing"

	"vanetsim"
)

func TestFormatEnvelopeTable(t *testing.T) {
	rows := vanetsim.FeasibilityEnvelope(vanetsim.DefaultBrakingModel(), 0.24, 0.006, []float64{10, 22.4})
	out := vanetsim.FormatEnvelopeTable(rows)
	if !strings.Contains(out, "TDMA gap(m)") || !strings.Contains(out, "50.1") {
		t.Fatalf("envelope table malformed:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("want header + 2 rows:\n%s", out)
	}
}

func TestREDTrialRuns(t *testing.T) {
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(60)
	cfg.Queue = vanetsim.QueueRED
	r := vanetsim.RunTrial(cfg)
	_, redSteady := r.Platoon1.MiddleDelays().SteadyState()

	base := vanetsim.Trial1()
	base.Duration = vanetsim.Seconds(60)
	rb := vanetsim.RunTrial(base)
	_, dtSteady := rb.Platoon1.MiddleDelays().SteadyState()

	if redSteady >= dtSteady {
		t.Fatalf("RED steady delay (%v) should undercut drop-tail (%v)", redSteady, dtSteady)
	}
}

func TestSINRTrialMatchesCaptureInSparseScenario(t *testing.T) {
	a := vanetsim.Trial3()
	a.Duration = vanetsim.Seconds(60)
	ra := vanetsim.RunTrial(a)
	b := a
	b.SINRPhy = true
	rb := vanetsim.RunTrial(b)
	ta := ra.Platoon1.Throughput().Summary(a.Duration).Mean
	tb := rb.Platoon1.Throughput().Summary(b.Duration).Mean
	if ta != tb {
		t.Fatalf("sparse scenario: capture %v vs SINR %v should agree", ta, tb)
	}
}

func TestAnimRecorderInTrial(t *testing.T) {
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(30)
	cfg.AnimInterval = 1
	r := vanetsim.RunTrial(cfg)
	if r.Anim == nil {
		t.Fatal("no recorder attached")
	}
	if r.Anim.Frames() != 31 {
		t.Fatalf("frames = %d, want 31", r.Anim.Frames())
	}
	if len(r.Anim.Nodes()) != 6 {
		t.Fatalf("tracked %d nodes, want 6", len(r.Anim.Nodes()))
	}
	frame := r.Anim.RenderFrame(0, r.Anim.AutoViewport(10), 40, 10)
	if !strings.Contains(frame, "t=") {
		t.Fatal("frame malformed")
	}
}

func TestFacadeJamming(t *testing.T) {
	cfg := vanetsim.DefaultJamming(vanetsim.MACTDMA)
	cfg.Duration = 20
	cfg.HopChannels = 4
	cfg.Jam.StartAt = 5
	r, err := vanetsim.RunJamming(cfg)
	if err != nil {
		t.Fatalf("RunJamming: %v", err)
	}
	if r.OverallDelivery <= 0.5 {
		t.Fatalf("FHSS delivery = %v under a 15 s attack window with hopping", r.OverallDelivery)
	}
	if len(r.Flows) != 2 {
		t.Fatalf("flows = %d", len(r.Flows))
	}
}
