// Ablation benchmarks: sweeps over the design choices DESIGN.md calls out,
// beyond the paper's own three trials. Each reports the quantities that
// explain *why* the paper's curves look the way they do.
package vanetsim_test

import (
	"fmt"
	"testing"

	"vanetsim"
)

// shortTrial returns a trial-1 variant trimmed to 80 simulated seconds —
// long enough for a clear steady state, cheap enough to sweep.
func shortTrial() vanetsim.TrialConfig {
	cfg := vanetsim.Trial1()
	cfg.Duration = vanetsim.Seconds(80)
	return cfg
}

// Ablation: interface-queue capacity. With ns-2's window of 20 per flow
// (40 packets in flight at the lead), the steady-state delay is
// min(inflight, queue)×frame — small queues cap the plateau and force
// drops.
func BenchmarkAblationQueueCapacity(b *testing.B) {
	for _, cap := range []int{10, 25, 50, 100} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := shortTrial()
				cfg.QueueCap = cap
				r := vanetsim.RunTrial(cfg)
				_, steady := r.Platoon1.MiddleDelays().SteadyState()
				b.ReportMetric(steady, "steady_s")
			}
		})
	}
}

// Ablation: TCP maximum window. The paper's multi-second TDMA plateau is
// window-limited (2×cwnd packets queued at the lead), so the plateau
// scales with the window until the 50-packet ifq binds instead.
func BenchmarkAblationTCPWindow(b *testing.B) {
	for _, win := range []float64{5, 10, 20, 40} {
		win := win
		b.Run(fmt.Sprintf("cwnd=%v", win), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := shortTrial()
				cfg.TCPWindow = win
				r := vanetsim.RunTrial(cfg)
				_, steady := r.Platoon1.MiddleDelays().SteadyState()
				b.ReportMetric(steady, "steady_s")
			}
		})
	}
}

// Ablation: TDMA radio rate. The slot is sized for a maximal packet, so
// the radio rate sets the frame duration and with it both the
// initial-packet delay (the paper's 0.24 s anchor) and the plateau.
func BenchmarkAblationTDMARate(b *testing.B) {
	for _, rate := range []float64{1e6, 2e6, 11e6} {
		rate := rate
		b.Run(fmt.Sprintf("rate=%.0fMbps", rate/1e6), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := shortTrial()
				cfg.TDMARateBps = rate
				r := vanetsim.RunTrial(cfg)
				first, _ := r.Platoon1.TrailingDelays().First()
				_, steady := r.Platoon1.MiddleDelays().SteadyState()
				b.ReportMetric(float64(first), "first_s")
				b.ReportMetric(steady, "steady_s")
			}
		})
	}
}

// Ablation: DropTail vs PriQueue. Routing-protocol priority does not move
// the paper's data-plane numbers in this small static-route scenario —
// which is why the paper can treat "drop-tail" and "PriQueue" as one
// fixed parameter.
func BenchmarkAblationQueueType(b *testing.B) {
	for _, q := range []struct {
		name string
		typ  vanetsim.QueueType
	}{
		{"droptail", vanetsim.QueueDropTail},
		{"priqueue", vanetsim.QueuePri},
		// RED keeps the standing queue short: under TDMA the steady-state
		// plateau drops well below the drop-tail level, at some
		// throughput cost from early drops.
		{"red", vanetsim.QueueRED},
	} {
		q := q
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := shortTrial()
				cfg.Queue = q.typ
				r := vanetsim.RunTrial(cfg)
				_, steady := r.Platoon1.MiddleDelays().SteadyState()
				sm := r.Platoon1.Throughput().Summary(cfg.Duration)
				b.ReportMetric(steady, "steady_s")
				b.ReportMetric(sm.Mean, "avg_Mbps")
			}
		})
	}
}

// Ablation: DoS resilience (the §III.E security trade-off). A
// single-channel jammer silences both plain MACs; FHSS hopping over 8
// channels confines it to ~1/8 of the slots.
func BenchmarkAblationDoSResilience(b *testing.B) {
	for _, v := range []struct {
		name string
		mod  func(*vanetsim.JammingConfig)
	}{
		{"80211-jammed", func(c *vanetsim.JammingConfig) { c.MAC = vanetsim.MAC80211 }},
		{"tdma-jammed", func(c *vanetsim.JammingConfig) { c.MAC = vanetsim.MACTDMA }},
		{"tdma-fhss8-jammed", func(c *vanetsim.JammingConfig) {
			c.MAC = vanetsim.MACTDMA
			c.HopChannels = 8
		}},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := vanetsim.DefaultJamming(vanetsim.MAC80211)
				v.mod(&cfg)
				r, err := vanetsim.RunJamming(cfg)
				if err != nil {
					b.Fatalf("RunJamming: %v", err)
				}
				b.ReportMetric(r.OverallDelivery, "delivery")
			}
		})
	}
}

// Ablation: PHY reception model. ns-2's pairwise capture versus an
// aggregate-SINR decision — in the paper's sparse 6-node scenario the
// choice barely matters (few concurrent transmitters), which justifies
// inheriting ns-2's simpler model.
func BenchmarkAblationPhyModel(b *testing.B) {
	for _, v := range []struct {
		name string
		sinr bool
	}{{"capture", false}, {"sinr", true}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := vanetsim.Trial3()
				cfg.Duration = vanetsim.Seconds(80)
				cfg.SINRPhy = v.sinr
				r := vanetsim.RunTrial(cfg)
				sm := r.Platoon1.Throughput().Summary(cfg.Duration)
				b.ReportMetric(sm.Mean, "avg_Mbps")
				b.ReportMetric(r.Platoon1.MiddleDelays().Summary().Mean, "avg_delay_s")
			}
		})
	}
}

// Methodology: independent replications of trial 3 (the paper used a
// single run with batch means). Reports the cross-seed 95% CI.
func BenchmarkReplicationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := vanetsim.Trial3()
		cfg.Duration = vanetsim.Seconds(60)
		st, err := vanetsim.RunReplicationsPool(cfg, []uint64{1, 2, 3, 4, 5}, vanetsim.Pool{})
		if err != nil {
			b.Fatal(err)
		}
		tput := studyMetric(b, st, vanetsim.MetricTput).CI
		b.ReportMetric(tput.Mean, "tput_Mbps")
		b.ReportMetric(tput.HalfWidth, "tput_ci95")
		b.ReportMetric(studyMetric(b, st, vanetsim.MetricDelay).CI.Mean, "delay_s")
	}
}

// Ablation: platoon size under TDMA (highway scenario). The TDMA frame
// grows with the node count, so the brake-indication latency — and the
// crash risk — scales with platoon size. The paper's 3-vehicle platoons
// are the optimistic end.
func BenchmarkAblationPlatoonSize(b *testing.B) {
	for _, n := range []int{3, 6, 10} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := vanetsim.RunHighway(vanetsim.DefaultHighway(vanetsim.MACTDMA, n))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Indications[0].IndicationDelay), "first_indication_s")
				b.ReportMetric(float64(r.Collisions), "collisions")
			}
		})
	}
}
