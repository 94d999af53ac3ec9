package aodv

import (
	"testing"
	"testing/quick"

	"vanetsim/internal/netlayer"
	"vanetsim/internal/packet"
	"vanetsim/internal/queue"
	"vanetsim/internal/sim"
)

// floodDst is a destination no agent in the harness owns or has a route
// to, so every request that is processed is either forwarded or dropped
// for its TTL.
const floodDst packet.NodeID = 9999

// floodNet is a bare AODV harness: agents on one scheduler with no radio
// under them. Each agent's MAC hands every frame the agent sends to the
// harness, and receptions are delivered by hand.
type floodNet struct {
	sched  *sim.Scheduler
	pf     *packet.Factory
	agents []*Agent
	sent   []*packet.Packet // frames sent since the last take
}

// captureMAC is the harness's MAC: it drains its interface queue into
// floodNet.sent on every poke.
type captureMAC struct {
	id  packet.NodeID
	ifq queue.Queue
	h   *floodNet
}

func (m *captureMAC) ID() packet.NodeID { return m.id }

func (m *captureMAC) Poke() {
	for p := m.ifq.Dequeue(); p != nil; p = m.ifq.Dequeue() {
		m.h.sent = append(m.h.sent, p)
	}
}

func newFloodNet(n int, cfg Config) *floodNet {
	h := &floodNet{sched: sim.New(), pf: &packet.Factory{}}
	for i := 0; i < n; i++ {
		id := packet.NodeID(i)
		net := netlayer.New(id, h.pf)
		ifq := queue.NewDropTail(64, nil)
		net.Attach(ifq, &captureMAC{id: id, ifq: ifq, h: h})
		h.agents = append(h.agents, New(h.sched, net, h.pf, sim.NewRNG(uint64(i)+1), cfg))
	}
	return h
}

// take returns the frames sent since the last take.
func (h *floodNet) take() []*packet.Packet {
	out := h.sent
	h.sent = nil
	return out
}

// deliver hands agent a its own copy of the frame p, heard from p's
// sender, the way the network layer receives a frame from its MAC.
func (h *floodNet) deliver(a *Agent, p *packet.Packet) {
	c := h.pf.Clone(p)
	c.Mac.Src = p.IP.Src
	a.net.RecvFromMac(c)
}

// floodKey names a flood in the reference model the way RFC 3561 does:
// its originator and the originator's broadcast id. In the harness an
// agent's sequence number advances once per flood and nowhere else (no
// agent is ever a destination), so OriginSeq serves as the broadcast id.
type floodKey struct {
	origin packet.NodeID
	id     uint32
}

// TestFloodDedupMatchesMapModel interleaves originations and receptions of
// flood copies (originals and forwarded ones) over several agents, at
// times on a quarter-second grid that straddle BcastIDSave and hit it
// exactly. After every reception each agent's duplicate, stale and forward
// counters must match a reference model that keeps, per agent, a map of
// the (origin, broadcast id) pairs it has processed, as RFC 3561 does.
func TestFloodDedupMatchesMapModel(t *testing.T) {
	const n = 4
	cfg := DefaultConfig()
	cfg.BcastIDSave = 1
	check := func(prog []uint16) bool {
		h := newFloodNet(n, cfg)
		type want struct{ dups, stale, fwd int }
		model := make([]want, n)
		seen := make([]map[floodKey]bool, n)
		for i := range seen {
			seen[i] = map[floodKey]bool{}
		}
		born := map[floodKey]sim.Time{}
		var copies []*packet.Packet // every request frame sent so far
		now := sim.Time(0)
		for _, w := range prog {
			now += sim.Time(w&3) * 0.25
			h.sched.RunUntil(now)
			copies = append(copies, h.take()...)
			if w>>2&3 == 0 {
				a := h.agents[int(w>>4)%n]
				a.sendRREQ(floodDst, &discovery{ttl: 1 + int(w>>6)%3})
				sent := h.take()
				rq := sent[0].Payload.(*RREQ)
				born[floodKey{rq.Origin, rq.OriginSeq}] = now
				copies = append(copies, sent...)
				continue
			}
			if len(copies) == 0 {
				continue
			}
			r := int(w>>8) % n
			p := copies[int(w>>10)%len(copies)]
			rq := p.Payload.(*RREQ)
			key := floodKey{rq.Origin, rq.OriginSeq}
			switch m := &model[r]; {
			case rq.Origin == packet.NodeID(r):
			case now-born[key] > cfg.BcastIDSave:
				m.stale++
			case seen[r][key]:
				m.dups++
			default:
				seen[r][key] = true
				if p.IP.TTL > 1 {
					m.fwd++
				}
			}
			h.deliver(h.agents[r], p)
			for i, a := range h.agents {
				st := a.Stats()
				if got := (want{st.RREQDuplicates, st.RREQStale, st.RREQForwarded}); got != model[i] {
					t.Logf("t=%v agent %d: got %+v, model %+v", now, i, got, model[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAODVRecvRREQ is the routing layer's share of a dense flood: one
// request, at TTLStart 1 as the dense scenario runs it, received by 100
// agents twice — the first copy, which updates the routing table and
// stops at the TTL, then a duplicate. Each op also originates the flood
// and fires its discovery timer.
func BenchmarkAODVRecvRREQ(b *testing.B) {
	cfg := DefaultConfig()
	cfg.TTLStart = 1
	h := newFloodNet(101, cfg)
	origin, receivers := h.agents[0], h.agents[1:]
	op := func() {
		origin.sendRREQ(floodDst, &discovery{ttl: cfg.TTLStart})
		p := h.take()[0]
		for pass := 0; pass < 2; pass++ {
			for _, a := range receivers {
				h.deliver(a, p)
			}
		}
		h.pf.Release(p)
		h.sched.RunUntil(h.sched.Now() + 1)
	}
	op() // routing-table entries and the packet pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
