package ebl_test

import (
	"math"
	"testing"
	"testing/quick"

	"vanetsim/internal/ebl"
	"vanetsim/internal/sim"
)

func TestMinSafeGapHandComputed(t *testing.T) {
	m := ebl.BrakingModel{LeadDecel: 8, FollowerDecel: 4, Reaction: 0.5, Margin: 5}
	// v=20: blind 20*(0.1+0.5)=12; decel term 400*(1/8 - 1/16)=400*0.0625=25; +5.
	got := m.MinSafeGap(20, 0.1)
	if math.Abs(got-42) > 1e-9 {
		t.Fatalf("MinSafeGap = %v, want 42", got)
	}
}

func TestMinSafeGapEqualBraking(t *testing.T) {
	m := ebl.BrakingModel{LeadDecel: 7, FollowerDecel: 7, Reaction: 0.7, Margin: 5}
	// Equal decels: only blind distance + margin.
	got := m.MinSafeGap(22.4, 0.24)
	want := 22.4*(0.24+0.7) + 5
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MinSafeGap = %v, want %v", got, want)
	}
}

func TestEnvelopeTDMAvs80211(t *testing.T) {
	// With the measured indication delays, the envelope must show 802.11
	// tolerating strictly higher speeds at the paper's 25 m gap.
	model := ebl.DefaultBrakingModel()
	speeds := []float64{10, 15, 20, 22.4, 25, 30}
	rows := ebl.FeasibilityEnvelope(model, 0.24, 0.006, speeds)
	if len(rows) != len(speeds) {
		t.Fatalf("rows = %d", len(rows))
	}
	sawContrast := false
	for _, r := range rows {
		if r.MinGapTDMA <= r.MinGap80211 {
			t.Fatalf("TDMA min gap (%v) should exceed 802.11's (%v) at v=%v",
				r.MinGapTDMA, r.MinGap80211, r.SpeedMS)
		}
		if !r.SafeAt25TDMA && r.SafeAt2580211 {
			sawContrast = true
		}
		if r.SafeAt25TDMA && !r.SafeAt2580211 {
			t.Fatal("TDMA can never be safe where 802.11 is not")
		}
	}
	if !sawContrast {
		t.Fatal("no speed where 802.11 is safe at 25 m and TDMA is not; envelope uninformative")
	}
}

// Property: MinSafeGap is monotone in speed and indication delay.
func TestEnvelopeMonotonicityProperty(t *testing.T) {
	f := func(vRaw, dRaw uint8) bool {
		m := ebl.DefaultBrakingModel()
		v := float64(vRaw%40) + 1
		d := sim.Time(dRaw%100) / 100
		if m.MinSafeGap(v+1, d) <= m.MinSafeGap(v, d) {
			return false
		}
		return m.MinSafeGap(v, d+0.1) > m.MinSafeGap(v, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
