package tcp_test

import (
	"testing"
	"testing/quick"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
	"vanetsim/internal/tcp"
)

// TestSinkFirstMatchesSetModel feeds random segment-number sequences —
// duplicates, reordering and gaps — straight into a real Sink and checks
// the first flag it hands its observer against a set of the numbers seen
// so far: first is true exactly when the set has not seen the number yet.
// Segment numbers start at 1, like the sender's.
func TestSinkFirstMatchesSetModel(t *testing.T) {
	cfg := tcp.DefaultConfig()
	check := func(seqs []uint8) bool {
		_, _, _, snk := ccRig(t, cfg, 10*sim.Millisecond)
		var got []bool
		snk.OnRecv(func(_ *packet.Packet, _ sim.Time, first bool) { got = append(got, first) })
		var pf packet.Factory
		seen := make(map[int]bool)
		for i, b := range seqs {
			seq := int(b%24) + 1
			p := pf.New(packet.TypeTCP, cfg.SegmentSize+cfg.HdrBytes, 0)
			p.IP = packet.IPHdr{Src: 1, Dst: 1, SrcPort: 100, DstPort: 200}
			p.SetTCP(packet.TCPHdr{Seq: seq})
			snk.RecvFromNet(p)
			if len(got) != i+1 {
				t.Logf("arrival %d (seq %d): observer called %d times", i, seq, len(got))
				return false
			}
			if want := !seen[seq]; got[i] != want {
				t.Logf("arrival %d (seq %d): first = %v, set model %v", i, seq, got[i], want)
				return false
			}
			seen[seq] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
