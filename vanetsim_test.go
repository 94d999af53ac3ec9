package vanetsim_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"vanetsim"
)

// Shared trial results: the facade tests only read them.
var (
	once             sync.Once
	res1, res2, res3 *vanetsim.TrialResult
)

func results(t testing.TB) (*vanetsim.TrialResult, *vanetsim.TrialResult, *vanetsim.TrialResult) {
	once.Do(func() {
		res1 = vanetsim.RunTrial(vanetsim.Trial1())
		res2 = vanetsim.RunTrial(vanetsim.Trial2())
		res3 = vanetsim.RunTrial(vanetsim.Trial3())
	})
	return res1, res2, res3
}

func TestTrialConfigs(t *testing.T) {
	t1, t2, t3 := vanetsim.Trial1(), vanetsim.Trial2(), vanetsim.Trial3()
	if t1.MAC != vanetsim.MACTDMA || t1.PacketSize != 1000 {
		t.Fatalf("trial1 = %+v", t1)
	}
	if t2.MAC != vanetsim.MACTDMA || t2.PacketSize != 500 {
		t.Fatalf("trial2 = %+v", t2)
	}
	if t3.MAC != vanetsim.MAC80211 || t3.PacketSize != 1000 {
		t.Fatalf("trial3 = %+v", t3)
	}
	if math.Abs(t1.SpeedMS-22.352) > 0.01 {
		t.Fatalf("speed = %v, want 50 mph in m/s", t1.SpeedMS)
	}
}

func TestAllFiguresNonEmpty(t *testing.T) {
	r1, r2, r3 := results(t)
	figs := []vanetsim.Figure{
		vanetsim.Fig5(r1), vanetsim.Fig6(r1), vanetsim.Fig7(r1),
		vanetsim.Fig8(r2), vanetsim.Fig9(r2), vanetsim.Fig10(r2),
		vanetsim.Fig11(r3), vanetsim.Fig12(r3), vanetsim.Fig13(r3),
		vanetsim.Fig14(r3), vanetsim.Fig15(r3),
	}
	for _, f := range figs {
		if f.Len() == 0 {
			t.Errorf("%s is empty", f.ID)
		}
		if len(f.X) != len(f.Y) {
			t.Errorf("%s has mismatched axes", f.ID)
		}
	}
}

func TestTransientFiguresShorter(t *testing.T) {
	r1, _, _ := results(t)
	if vanetsim.Fig6(r1).Len() >= vanetsim.Fig5(r1).Len() {
		t.Fatal("transient figure must be a strict prefix of the overall one")
	}
}

func TestFigureCSV(t *testing.T) {
	r1, _, _ := results(t)
	csv := vanetsim.Fig7(r1).CSV()
	if !strings.HasPrefix(csv, "# Fig7") {
		t.Fatalf("CSV header missing: %q", csv[:40])
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != vanetsim.Fig7(r1).Len()+2 {
		t.Fatalf("CSV has %d lines for %d points", len(lines), vanetsim.Fig7(r1).Len())
	}
}

func TestFigureASCII(t *testing.T) {
	r1, _, _ := results(t)
	art := vanetsim.Fig5(r1).ASCII(60, 12)
	if !strings.Contains(art, "*") {
		t.Fatal("ASCII plot has no points")
	}
	if !strings.Contains(art, "packet ID") {
		t.Fatal("ASCII plot missing axis label")
	}
	empty := vanetsim.Figure{ID: "x", Title: "t"}
	if !strings.Contains(empty.ASCII(40, 8), "no data") {
		t.Fatal("empty figure should say so")
	}
}

func TestDelayTableShape(t *testing.T) {
	r1, _, _ := results(t)
	rows := vanetsim.DelayTable(r1)
	if len(rows) != 4 {
		t.Fatalf("delay table has %d rows, want 4 (2 platoons x 2 vehicles)", len(rows))
	}
	for _, row := range rows {
		if row.N == 0 {
			t.Fatalf("row %+v has no packets", row)
		}
		if row.MinS > row.AvgS || row.AvgS > row.MaxS {
			t.Fatalf("row %+v violates min<=avg<=max", row)
		}
	}
	txt := vanetsim.FormatDelayTable(rows)
	if !strings.Contains(txt, "trial1") || !strings.Contains(txt, "trailing") {
		t.Fatal("formatted delay table missing content")
	}
}

func TestThroughputTableShape(t *testing.T) {
	r1, _, _ := results(t)
	rows := vanetsim.ThroughputTable(r1)
	if len(rows) != 2 {
		t.Fatalf("throughput table has %d rows", len(rows))
	}
	for _, row := range rows {
		if row.MinMbps != 0 {
			t.Fatalf("min throughput %v, want 0 (silent prefix as in the paper)", row.MinMbps)
		}
		if row.AvgMbps <= 0 || row.MaxMbps < row.AvgMbps {
			t.Fatalf("row %+v inconsistent", row)
		}
		if row.Level != 0.95 {
			t.Fatal("confidence level must be 95% as in the paper")
		}
	}
	txt := vanetsim.FormatThroughputTable(rows)
	if !strings.Contains(txt, "95%CI") {
		t.Fatal("formatted throughput table missing CI column")
	}
}

func TestStoppingTableReproducesContrast(t *testing.T) {
	r1, _, r3 := results(t)
	rows := vanetsim.StoppingTable(r1, r3)
	if len(rows) != 2 {
		t.Fatalf("stopping table has %d rows", len(rows))
	}
	tdma, dcf := rows[0], rows[1]
	// The paper's punchline: TDMA eats a large fraction of the 25 m gap
	// before the driver knows; 802.11 a tiny one.
	if tdma.FractionOfSeparation < 10*dcf.FractionOfSeparation {
		t.Fatalf("contrast too weak: TDMA %.3f vs 802.11 %.3f",
			tdma.FractionOfSeparation, dcf.FractionOfSeparation)
	}
	txt := vanetsim.FormatStoppingTable(rows)
	if !strings.Contains(txt, "% of 25 m gap") {
		t.Fatal("formatted stopping table missing header")
	}
}

func TestPaperStoppingAnalysisNumbers(t *testing.T) {
	// The paper's published example: 0.24 s at 50 mph = 5.38 m, >20%.
	a := vanetsim.PaperStoppingAnalysis(0.24)
	if math.Abs(a.DistanceBeforeNotice-5.376) > 0.01 {
		t.Fatalf("distance = %v", a.DistanceBeforeNotice)
	}
	if a.FractionOfSeparation <= 0.20 {
		t.Fatalf("fraction = %v, want > 20%%", a.FractionOfSeparation)
	}
}

func TestMPHToMS(t *testing.T) {
	if v := vanetsim.MPHToMS(100); math.Abs(v-44.704) > 1e-9 {
		t.Fatalf("100 mph = %v", v)
	}
}
