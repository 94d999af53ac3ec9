package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

func sample() Record {
	return Record{
		Op: Send, At: 12.00035, Node: 3, Layer: LayerAgent,
		UID: 42, Type: "tcp", Size: 1040,
		Src: 0, SrcPt: 100, Dst: 1, DstPt: 200, Seq: 5,
	}
}

func TestLineFormat(t *testing.T) {
	got := sample().Line()
	want := "s 12.000350 _3_ AGT --- 42 tcp 1040 [0:100 1:200] 5"
	if got != want {
		t.Fatalf("Line = %q, want %q", got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	r := sample()
	back, err := Parse(r.Line())
	if err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, r)
	}
}

func TestRoundTripWithReason(t *testing.T) {
	r := sample()
	r.Op = Drop
	r.Layer = LayerIfq
	r.Reason = "IFQ"
	back, err := Parse(r.Line())
	if err != nil {
		t.Fatal(err)
	}
	if back.Reason != "IFQ" || back.Op != Drop {
		t.Fatalf("round trip with reason = %+v", back)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"x 1.0 _0_ AGT --- 1 tcp 10 [0:0 1:0] -1",     // bad op
		"s abc _0_ AGT --- 1 tcp 10 [0:0 1:0] -1",     // bad time
		"s 1.0 _zz_ AGT --- 1 tcp 10 [0:0 1:0] -1",    // bad node
		"s 1.0 _0_ AGT --- x tcp 10 [0:0 1:0] -1",     // bad uid
		"s 1.0 _0_ AGT --- 1 tcp ten [0:0 1:0] -1",    // bad size
		"s 1.0 _0_ AGT --- 1 tcp 10 [0=0 1:0] -1",     // bad addr
		"s 1.0 _0_ AGT --- 1 tcp 10 [0:0 1:0]",        // missing field
		"s 1.0 _0_ AGT --- 1 tcp 10 [0:0 1:0] -1 huh", // extra field
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) should fail", line)
		}
	}
}

func TestFromPacket(t *testing.T) {
	var f packet.Factory
	p := f.New(packet.TypeTCP, 1040, 1.5)
	p.IP = packet.IPHdr{Src: 0, Dst: 1, SrcPort: 100, DstPort: 200}
	p.TCP = &packet.TCPHdr{Seq: 7}
	r := FromPacket(Recv, 2.0, 1, LayerAgent, p)
	if r.Seq != 7 || r.UID != p.UID || r.Type != "tcp" || r.Node != 1 {
		t.Fatalf("FromPacket = %+v", r)
	}
	q := f.New(packet.TypeAODV, 48, 0)
	if FromPacket(Send, 0, 0, LayerRouting, q).Seq != -1 {
		t.Fatal("non-TCP packet should have seq -1")
	}
}

func TestCollectorAndReadAll(t *testing.T) {
	var c Collector
	c.Add(sample())
	r2 := sample()
	r2.Op = Recv
	r2.Node = 1
	r2.At = 12.1
	c.Add(r2)
	if len(c.Records()) != 2 {
		t.Fatalf("collector holds %d records, want 2", len(c.Records()))
	}
	var sb strings.Builder
	if err := WriteAll(&sb, c.Records()); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(strings.NewReader(sb.String() + "\n# comment\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0] != c.Records()[0] || recs[1] != r2 {
		t.Fatalf("ReadAll = %+v, want %+v", recs, c.Records())
	}
}

func TestReadAllBadLine(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("garbage line\n")); err == nil {
		t.Fatal("bad line should error with line number")
	}
}

func TestOneWayDelays(t *testing.T) {
	flow := FlowKey{Src: 0, SrcPt: 100, Dst: 1, DstPt: 200}
	mk := func(op Op, at sim.Time, node packet.NodeID, seq int) Record {
		return Record{Op: op, At: at, Node: node, Layer: LayerAgent,
			UID: uint64(seq), Type: "tcp", Size: 1040,
			Src: 0, SrcPt: 100, Dst: 1, DstPt: 200, Seq: seq}
	}
	recs := []Record{
		mk(Send, 1.0, 0, 1),
		mk(Recv, 1.3, 1, 1),
		mk(Send, 2.0, 0, 2),
		mk(Send, 5.0, 0, 2), // retransmission: first send time must win
		mk(Recv, 5.4, 1, 2),
		mk(Recv, 5.5, 1, 2), // duplicate receive: ignored
	}
	byFlow := OneWayDelays(recs)
	s := byFlow[flow]
	if s == nil || s.Len() != 2 {
		t.Fatalf("series = %+v", byFlow)
	}
	pts := s.Points()
	if !approx(float64(pts[0].Delay), 0.3) {
		t.Fatalf("delay 1 = %v", pts[0].Delay)
	}
	if !approx(float64(pts[1].Delay), 3.4) {
		t.Fatalf("delay 2 = %v, want 3.4 (from first send)", pts[1].Delay)
	}
}

func TestFlowThroughput(t *testing.T) {
	mk := func(at sim.Time, size int) Record {
		return Record{Op: Recv, At: at, Node: 1, Layer: LayerAgent,
			UID: 1, Type: "tcp", Size: size,
			Src: 0, SrcPt: 100, Dst: 1, DstPt: 200, Seq: 1}
	}
	recs := []Record{mk(0.1, 1000), mk(0.2, 1000), mk(0.7, 500)}
	tps := FlowThroughput(recs, 0.5)
	tp := tps[1]
	if tp == nil {
		t.Fatal("no throughput for node 1")
	}
	if tp.TotalBytes() != 2500 {
		t.Fatalf("total = %d", tp.TotalBytes())
	}
	series := tp.SeriesUntil(1)
	if !approx(series[0].Mbps, 2000*8/0.5/1e6) {
		t.Fatalf("bin 0 = %v", series[0].Mbps)
	}
}

// Property: Line/Parse round-trips arbitrary well-formed records.
func TestRoundTripProperty(t *testing.T) {
	ops := []Op{Send, Recv, Drop, Forward}
	layers := []Layer{LayerAgent, LayerRouting, LayerIfq, LayerMac}
	f := func(opI, layerI uint8, at uint32, node int16, uid uint32, size uint16, src, dst int16, sp, dp uint8, seq int16) bool {
		r := Record{
			Op: ops[int(opI)%len(ops)], At: sim.Time(at) / 1000,
			Node: packet.NodeID(node), Layer: layers[int(layerI)%len(layers)],
			UID: uint64(uid), Type: "tcp", Size: int(size),
			Src: packet.NodeID(src), SrcPt: int(sp),
			Dst: packet.NodeID(dst), DstPt: int(dp), Seq: int(seq),
		}
		back, err := Parse(r.Line())
		return err == nil && back == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
