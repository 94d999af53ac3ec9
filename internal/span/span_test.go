package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// record appends an event at an explicit time by stepping a private
// scheduler, keeping tests independent of real event plumbing.
type fixture struct {
	sched *sim.Scheduler
	rec   *Recorder
}

func newFixture() *fixture {
	s := sim.New()
	r := NewRecorder()
	r.Bind(s)
	return &fixture{sched: s, rec: r}
}

// at advances the fixture clock to t and records the event there.
func (f *fixture) at(t sim.Time, op Op, cause Cause, node packet.NodeID, p *packet.Packet, dur sim.Time) {
	f.sched.At(t, func() {
		if dur > 0 {
			f.rec.RecordDur(op, cause, node, p, dur)
		} else {
			f.rec.Record(op, cause, node, p)
		}
	})
	f.sched.Run()
}

func pkt(uid uint64, t packet.Type, size int) *packet.Packet {
	return &packet.Packet{UID: uid, Type: t, Size: size}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Bind(nil)
	r.Record(OpEmit, CauseNone, 0, pkt(1, packet.TypeEBL, 100))
	r.RecordDur(OpTx, CauseNone, 0, pkt(1, packet.TypeEBL, 100), 0.001)
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
	if r.Trail(1) != nil || r.TrailLines(1) != nil {
		t.Fatal("nil recorder returned a trail")
	}
	if r.TrailFn() != nil {
		t.Fatal("nil recorder returned a trail function")
	}
}

func TestRecorderOrderAndFields(t *testing.T) {
	f := newFixture()
	p := pkt(7, packet.TypeTCP, 1040)
	p.TCP = &packet.TCPHdr{Seq: 3}
	f.at(1.5, OpEmit, CauseNone, 0, p, 0)
	f.at(2.0, OpTx, CauseNone, 0, p, 0.004)
	evs := f.rec.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	e := evs[1]
	if e.At != 2.0 || e.Dur != 0.004 || e.UID != 7 || e.Op != OpTx || e.Seq != 3 || e.Size != 1040 {
		t.Fatalf("bad event: %+v", e)
	}
	if evs[0].Seq != 3 {
		t.Fatalf("seq not captured: %+v", evs[0])
	}
}

func TestSeqDefaultsToMinusOne(t *testing.T) {
	f := newFixture()
	f.at(1, OpEmit, CauseNone, 2, pkt(9, packet.TypeEBL, 52), 0)
	if got := f.rec.Events()[0].Seq; got != -1 {
		t.Fatalf("seq = %d, want -1", got)
	}
}

func TestFlightRecorderTrail(t *testing.T) {
	f := newFixture()
	// Overflow the ring: flightSize+10 events for uid 1, then 3 for uid 2.
	for i := 0; i < flightSize+10; i++ {
		f.at(sim.Time(i), OpEnq, CauseNone, 0, pkt(1, packet.TypeEBL, 10), 0)
	}
	for i := 0; i < 3; i++ {
		f.at(sim.Time(1000+i), OpFwd, CauseNone, 1, pkt(2, packet.TypeEBL, 10), 0)
	}
	trail := f.rec.Trail(2)
	if len(trail) != 3 {
		t.Fatalf("uid 2 trail has %d events, want 3", len(trail))
	}
	for i, e := range trail {
		if e.At != sim.Time(1000+i) {
			t.Fatalf("trail out of order: %+v", trail)
		}
	}
	// uid 1 events survive only within the ring window.
	t1 := f.rec.Trail(1)
	if len(t1) != flightSize-3 {
		t.Fatalf("uid 1 trail has %d events, want %d", len(t1), flightSize-3)
	}
	if t1[0].At != sim.Time(13) {
		t.Fatalf("oldest surviving event at t=%v, want 13", t1[0].At)
	}
	lines := f.rec.TrailLines(2)
	if len(lines) != 3 || !strings.Contains(lines[0], "uid=2") || !strings.Contains(lines[0], "fwd") {
		t.Fatalf("bad trail lines: %q", lines)
	}
	if f.rec.Trail(99) != nil {
		t.Fatal("unseen uid returned a trail")
	}
}

func TestNDJSONFormat(t *testing.T) {
	f := newFixture()
	p := pkt(42, packet.TypeTCP, 1040)
	p.TCP = &packet.TCPHdr{Seq: 5}
	f.at(12.00035, OpTx, CauseNone, 3, p, 0.00208)
	f.at(12.1, OpRxLost, CauseCollision, 4, p, 0)
	var b bytes.Buffer
	if err := WriteNDJSON(&b, f.rec.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	want0 := `{"at":12.000350000,"node":3,"op":"tx","uid":42,"type":"tcp","size":1040,"seq":5,"dur":0.002080000}`
	want1 := `{"at":12.100000000,"node":4,"op":"rx_lost","cause":"collision","uid":42,"type":"tcp","size":1040,"seq":5}`
	if lines[0] != want0 {
		t.Errorf("line 0:\n got %s\nwant %s", lines[0], want0)
	}
	if lines[1] != want1 {
		t.Errorf("line 1:\n got %s\nwant %s", lines[1], want1)
	}
	// Every line must round-trip as JSON.
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
	}
}

func TestChromeExport(t *testing.T) {
	f := newFixture()
	p := pkt(1, packet.TypeEBL, 52)
	f.at(1.0, OpEnq, CauseNone, 0, p, 0)
	f.at(1.5, OpDeq, CauseNone, 0, p, 0)
	f.at(1.6, OpTx, CauseNone, 0, p, 0.002)
	f.at(1.7, OpRxOK, CauseNone, 1, p, 0)
	var b bytes.Buffer
	if err := WriteChrome(&b, f.rec.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			S    string  `json:"s"`
			Args struct {
				UID  uint64 `json:"uid"`
				Type string `json:"type"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, b.String())
	}
	// enq+deq collapse into one complete event, so 3 total.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	ifq := doc.TraceEvents[0]
	if ifq.Name != "ifq" || ifq.Ph != "X" || ifq.Ts != 1e6 || ifq.Dur != 0.5e6 {
		t.Fatalf("bad ifq event: %+v", ifq)
	}
	tx := doc.TraceEvents[1]
	if tx.Name != "tx" || tx.Ph != "X" || tx.Dur != 2000 || tx.Args.UID != 1 {
		t.Fatalf("bad tx event: %+v", tx)
	}
	rx := doc.TraceEvents[2]
	if rx.Ph != "i" || rx.S != "t" || rx.Tid != 1 {
		t.Fatalf("bad instant event: %+v", rx)
	}
}

func TestAnalyzeBreakdown(t *testing.T) {
	f := newFixture()
	p := pkt(1, packet.TypeEBL, 52)
	// emit 10.000 → enq → mac_wait 10.001 (queueing 1ms) → deq 10.004 →
	// tx 10.004 (contention 3ms from mac_wait, airtime 2ms) → retry gap →
	// tx 10.010 (retransmit 4ms) → rx → deliver 10.013.
	f.at(10.000, OpEmit, CauseNone, 0, p, 0)
	f.at(10.000, OpEnq, CauseNone, 0, p, 0)
	f.at(10.001, OpMacWait, CauseNone, 0, p, 0)
	f.at(10.004, OpDeq, CauseNone, 0, p, 0)
	f.at(10.004, OpTx, CauseNone, 0, p, 0.002)
	f.at(10.010, OpTx, CauseNone, 0, p, 0.002)
	f.at(10.012, OpRxOK, CauseNone, 1, p, 0)
	f.at(10.013, OpDeliver, CauseNone, 1, p, 0)
	bs := Analyze(f.rec.Events())
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	const tol = 1e-12
	approx := func(got, want sim.Time, name string) {
		t.Helper()
		if d := float64(got - want); d > tol || d < -tol {
			t.Errorf("%s = %v, want %v (breakdown %+v)", name, got, want, b)
		}
	}
	approx(b.Total, 0.013, "total")
	approx(b.Queueing, 0.001, "queueing")
	approx(b.Contention, 0.003, "contention")
	approx(b.Airtime, 0.004, "airtime")
	approx(b.Retransmit, 0.004, "retransmit")
	approx(b.Rerouting, 0, "rerouting")
	approx(b.Other, 0.001, "other")
}

func TestAnalyzeReroutingAndUndelivered(t *testing.T) {
	f := newFixture()
	p1, p2 := pkt(1, packet.TypeTCP, 1040), pkt(2, packet.TypeTCP, 1040)
	f.at(1.0, OpEmit, CauseNone, 0, p1, 0)
	f.at(1.0, OpRouteBuf, CauseNone, 0, p1, 0)
	f.at(1.2, OpRouteTx, CauseNone, 0, p1, 0)
	f.at(1.3, OpDeliver, CauseNone, 5, p1, 0)
	// p2 never delivered: must be excluded.
	f.at(2.0, OpEmit, CauseNone, 0, p2, 0)
	f.at(2.1, OpNetDrop, CauseTTLExpired, 3, p2, 0)
	bs := Analyze(f.rec.Events())
	if len(bs) != 1 || bs[0].UID != 1 {
		t.Fatalf("breakdowns: %+v", bs)
	}
	if got := bs[0].Rerouting; got < 0.199 || got > 0.201 {
		t.Fatalf("rerouting = %v, want 0.2", got)
	}
}

func TestSummarizeAndFormat(t *testing.T) {
	bs := []Breakdown{
		{Total: 0.010, Queueing: 0.004, Airtime: 0.002, Other: 0.004},
		{Total: 0.020, Queueing: 0.008, Airtime: 0.002, Other: 0.010},
	}
	a := Summarize(bs)
	if a.N != 2 || a.Total != 0.015 || a.Queueing != 0.006 || a.Airtime != 0.002 {
		t.Fatalf("aggregate: %+v", a)
	}
	if z := Summarize(nil); z.N != 0 || z.Total != 0 {
		t.Fatalf("empty summarize: %+v", z)
	}
	out := FormatComparison([]string{"tdma", "802.11"}, []Aggregate{a, {}})
	for _, want := range []string{"component", "tdma (ms)", "802.11 (ms)", "queueing", "total", "packets"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "15.000") {
		t.Fatalf("table missing mean total in ms:\n%s", out)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1.5, UID: 7, Node: 2, Op: OpRxLost, Cause: CauseCollision, Type: packet.TypeEBL, Dur: 0.002}
	s := e.String()
	for _, want := range []string{"t=1.500000000s", "n2", "rx_lost/collision", "uid=7", "ebl", "dur=0.002000000s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
