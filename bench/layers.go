package main

import (
	"vanetsim"
	"vanetsim/internal/scenario"
	"vanetsim/internal/sim"
)

// layerSpec lists every per-layer metric a traced run reports, in report
// order. BENCHMARK.json's per_layer section lists the same names and
// units; the smoke test holds the two together. Counts and spans are per
// timed operation unless README.md says otherwise.
var layerSpec = []struct{ name, unit string }{
	// sim: the event scheduler.
	{"cpu.sim_s", "s"},
	{"sim.events", "count"},
	{"sim.events_phy", "count"},
	{"sim.events_mac", "count"},
	{"sim.events_routing", "count"},
	{"sim.events_transport", "count"},
	{"sim.events_app", "count"},
	{"sim.events_mobility", "count"},
	{"sim.events_obs", "count"},
	{"sim.events_other", "count"},
	{"sim.max_pending", "count"},
	{"sim.ns_per_event", "ns"},
	// phy + geom: radio, channel and spatial index.
	{"cpu.phy_s", "s"},
	{"cpu.geom_s", "s"},
	{"phy.tx_frames", "count"},
	{"phy.rx_ok", "count"},
	{"phy.rx_collided", "count"},
	{"phy.rx_ok_ratio", "ratio"},
	// mac80211: DCF.
	{"cpu.mac80211_s", "s"},
	{"mac.dcf_retries", "count"},
	{"mac.dcf_drops", "count"},
	// mactdma + queue.
	{"cpu.mactdma_s", "s"},
	{"cpu.queue_s", "s"},
	{"mac.tdma_idle_slots", "count"},
	{"ifq.drops", "count"},
	// aodv + netlayer.
	{"cpu.aodv_s", "s"},
	{"cpu.netlayer_s", "s"},
	{"aodv.rreq_originated", "count"},
	{"aodv.rreq_forwarded", "count"},
	// tcp.
	{"cpu.tcp_s", "s"},
	{"tcp.segments_sent", "count"},
	{"tcp.retransmits", "count"},
	{"tcp.timeouts", "count"},
	// app/ebl, mobility, packet.
	{"cpu.app_s", "s"},
	{"cpu.mobility_s", "s"},
	{"cpu.packet_s", "s"},
	{"app.sent", "count"},
	{"app.delivered", "count"},
	{"app.delivery_ratio", "ratio"},
	// metrics + stats: analysis.
	{"metrics.analyze_s", "s"},
	{"cpu.metrics_s", "s"},
	{"cpu.stats_s", "s"},
	// render: the root package's tables and figures.
	{"render.format_s", "s"},
	{"cpu.render_s", "s"},
	// runner + stats/seqstop.
	{"cpu.runner_s", "s"},
	{"seqstop.batch_s", "s"},
	{"seqstop.reps_used", "count"},
	{"seqstop.reps_executed", "count"},
	{"runner.cpu_util", "ratio"},
	// service, canon, cache, HTTP.
	{"cpu.service_s", "s"},
	{"cpu.http_s", "s"},
	{"service.artifact_s", "s"},
	{"service.hits", "count"},
	{"service.misses", "count"},
	{"service.coalesced", "count"},
	{"http.hit_residual_us", "us"},
	{"cpu.canon_s", "s"},
	{"canon.decode_us", "us"},
	{"canon.canonicalize_us", "us"},
	{"canon.hash_us", "us"},
	{"cpu.cache_s", "s"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	// Go runtime.
	{"gc.alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"cpu.gc_bg_s", "s"},
	{"cpu.runtime_in_layer_share", "ratio"},
	// The rest of the profile.
	{"cpu.other_s", "s"},
	{"cpu.harness_s", "s"},
	// Host diagnostics.
	{"host.calib_s", "s"},
	{"pprof.samples", "count"},
	{"trace.overhead_frac", "ratio"},
}

// countWorld adds one finished run's work counts, read from the layers'
// public getters, to the traced phase.
func (t *tracer) countWorld(w *scenario.World) {
	if t == nil {
		return
	}
	for k, n := range w.Sched.ExecutedByKind() {
		t.add("sim.events_"+sim.EventKind(k).String(), float64(n))
	}
	t.add("sim.events", float64(w.Sched.Executed()))
	t.peak("sim.max_pending", float64(w.Sched.MaxPending()))
	for _, n := range w.Nodes {
		rs := n.Radio.Stats()
		t.add("phy.tx_frames", float64(rs.TxFrames))
		t.add("phy.rx_ok", float64(rs.RxOK))
		t.add("phy.rx_collided", float64(rs.RxCollided))
		if n.DCF != nil {
			ds := n.DCF.Stats()
			t.add("mac.dcf_retries", float64(ds.Retries))
			t.add("mac.dcf_drops", float64(ds.Drops))
		}
		if n.TDMA != nil {
			t.add("mac.tdma_idle_slots", float64(n.TDMA.Stats().IdleSlots))
		}
		as := n.AODV.Stats()
		t.add("aodv.rreq_originated", float64(as.RREQOriginated))
		t.add("aodv.rreq_forwarded", float64(as.RREQForwarded))
		t.add("ifq.drops", float64(n.Ifq.Drops()))
	}
}

// countTrial adds a paper trial's work counts: its world's, plus its EBL
// flows' transport and application counts.
func (t *tracer) countTrial(r *vanetsim.TrialResult) {
	if t == nil {
		return
	}
	t.countWorld(r.World)
	for _, p := range []*vanetsim.PlatoonResult{r.Platoon1, r.Platoon2} {
		for _, f := range p.Comms.Flows() {
			s := f.Sender.Stats()
			t.add("tcp.segments_sent", float64(s.SegmentsSent))
			t.add("tcp.retransmits", float64(s.Retransmits))
			t.add("tcp.timeouts", float64(s.Timeouts))
			t.add("app.sent", float64(s.SegmentsSent))
			t.add("app.delivered", float64(f.Delays.Len()))
		}
	}
}
