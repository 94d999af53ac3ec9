package aodv

import (
	"vanetsim/internal/check"
	"vanetsim/internal/netlayer"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
	"vanetsim/internal/span"
)

// Config holds AODV protocol constants. DefaultConfig matches ns-2's AODV
// defaults with link-layer failure detection (hellos disabled), the
// configuration the paper's Tcl script selects.
type Config struct {
	// ActiveRouteTimeout is the lifetime granted to a route each time it
	// carries traffic.
	ActiveRouteTimeout sim.Time
	// MyRouteTimeout is the lifetime a destination grants in its RREP.
	MyRouteTimeout sim.Time
	// NodeTraversalTime estimates per-hop latency; ring-search timeouts
	// are 2·TTL·NodeTraversalTime.
	NodeTraversalTime sim.Time
	// NetDiameter bounds the final ring-search TTL.
	NetDiameter int
	// RREQRetries is how many times discovery is retried before the
	// buffered packets are dropped.
	RREQRetries int
	// TTLStart/TTLIncrement/TTLThreshold parameterise the expanding ring.
	TTLStart, TTLIncrement, TTLThreshold int
	// BcastIDSave is how long (origin, broadcast-id) pairs are remembered
	// for RREQ duplicate suppression.
	BcastIDSave sim.Time
	// MaxBufferPerDest bounds packets queued awaiting a route.
	MaxBufferPerDest int
	// BroadcastJitter randomises RREQ rebroadcast to desynchronise floods.
	BroadcastJitter sim.Time
	// HelloInterval enables periodic hello beacons when positive; zero
	// relies on MAC-layer failure detection (ns-2's -llFailure, and the
	// only failure signal available under TDMA-with-ACKs-off is none, so
	// hellos are the ablation knob for that).
	HelloInterval sim.Time
	// AllowedHelloLoss consecutive missed hellos declare a link broken.
	AllowedHelloLoss int
	// LocalRepair lets an intermediate node that loses a downstream link
	// try to re-discover the destination itself (RFC 3561 §6.12) instead
	// of immediately reporting a route error; the error is sent only if
	// the repair fails.
	LocalRepair bool
	// MaxRepairHops bounds which breaks are repairable: only routes whose
	// remaining distance was at most this many hops (RFC's
	// MAX_REPAIR_TTL intent).
	MaxRepairHops int
}

// DefaultConfig returns ns-2-flavoured AODV defaults.
func DefaultConfig() Config {
	return Config{
		ActiveRouteTimeout: 10 * sim.Second,
		MyRouteTimeout:     10 * sim.Second,
		NodeTraversalTime:  30 * sim.Millisecond,
		NetDiameter:        16,
		RREQRetries:        3,
		TTLStart:           5,
		TTLIncrement:       2,
		TTLThreshold:       7,
		BcastIDSave:        6 * sim.Second,
		MaxBufferPerDest:   64,
		BroadcastJitter:    10 * sim.Millisecond,
		HelloInterval:      0,
		AllowedHelloLoss:   2,
		LocalRepair:        true,
		MaxRepairHops:      5,
	}
}

// Stats counts protocol events.
type Stats struct {
	RREQOriginated  int
	RREQForwarded   int
	RREQDuplicates  int
	RREQStale       int // floods discarded for outliving the dedup window
	RREPOriginated  int
	RREPForwarded   int
	RERRSent        int
	HellosSent      int
	RREQBytes       int // bytes of RREQ traffic offered to the stack
	RREPBytes       int // bytes of RREP traffic offered to the stack
	RERRBytes       int // bytes of RERR traffic offered to the stack
	HelloBytes      int // bytes of hello traffic offered to the stack
	DataForwarded   int
	DataNoRoute     int // data dropped (or RERRed) for lack of a route
	DataTTLExpired  int
	BufferedDropped int // buffered packets abandoned after failed discovery
	LinkBreaks      int
	Salvaged        int // packets re-queued for rediscovery at the source
	RepairsStarted  int // local repairs attempted at intermediate nodes
	RepairsFailed   int // local repairs that ended in a route error
}

type seenKey struct {
	origin packet.NodeID
	id     uint32
}

// discovery tracks one in-flight route search.
type discovery struct {
	ttl     int
	retries int
	timer   sim.Timer
	buffer  []*packet.Packet
	// repair marks a local-repair search: its failure must be announced
	// with a route error (the sources don't yet know the route is gone).
	repair bool
}

// Agent is one node's AODV routing agent.
type Agent struct {
	id    packet.NodeID
	sched *sim.Scheduler
	net   *netlayer.Net
	pf    *packet.Factory
	rng   *sim.RNG
	cfg   Config

	seq     uint32
	bcastID uint32
	tbl     *table
	seen    map[seenKey]sim.Time
	disc    map[packet.NodeID]*discovery

	neighbors  map[packet.NodeID]sim.Time // last-heard times (hello mode)
	helloTimer sim.Timer

	stats Stats

	// chk validates routes at use time and packet hop budgets along paths
	// (nil when the invariant checker is disabled).
	chk *check.RouteGuard

	// spans records routing decisions for the causal tracer (nil when
	// tracing is disarmed).
	spans *span.Recorder
}

var _ netlayer.Routing = (*Agent)(nil)

// New creates an AODV agent for the node owning net and installs itself as
// that layer's routing agent.
func New(sched *sim.Scheduler, net *netlayer.Net, pf *packet.Factory, rng *sim.RNG, cfg Config) *Agent {
	a := &Agent{
		id:        net.ID(),
		sched:     sched,
		net:       net,
		pf:        pf,
		rng:       rng,
		cfg:       cfg,
		tbl:       newTable(),
		seen:      make(map[seenKey]sim.Time),
		disc:      make(map[packet.NodeID]*discovery),
		neighbors: make(map[packet.NodeID]sim.Time),
	}
	net.SetRouting(a)
	if cfg.HelloInterval > 0 {
		a.helloTimer = sched.ScheduleKind(sim.KindRouting, cfg.HelloInterval, a.onHelloTimer)
	}
	return a
}

// Stats returns protocol counters.
func (a *Agent) Stats() Stats { return a.stats }

// SetCheck wires the world-shared route guard (may be nil).
func (a *Agent) SetCheck(g *check.RouteGuard) { a.chk = g }

// SetSpans wires the causal span recorder (may be nil).
func (a *Agent) SetSpans(rec *span.Recorder) { a.spans = rec }

// Routes returns a snapshot of the routing table for inspection.
func (a *Agent) Routes() []Route { return a.tbl.snapshot() }

// RouteTo returns the usable route to dst, or nil.
func (a *Agent) RouteTo(dst packet.NodeID) *Route {
	r := a.tbl.valid(dst, a.sched.Now())
	if r == nil {
		return nil
	}
	cp := *r
	cp.Precursors = nil
	return &cp
}

// HandleOutgoing implements netlayer.Routing.
func (a *Agent) HandleOutgoing(p *packet.Packet) {
	now := a.sched.Now()
	if r := a.tbl.valid(p.IP.Dst, now); r != nil {
		a.useRoute(p, r)
		return
	}
	a.bufferAndDiscover(p)
}

// useRoute stamps the next hop on p, refreshes the route chain, and
// transmits.
func (a *Agent) useRoute(p *packet.Packet, r *Route) {
	now := a.sched.Now()
	a.chk.UseRoute(now, r.Dst, r.Valid, r.Expiry, r.NextHop, r.Hops)
	a.spans.Record(span.OpRouteTx, span.CauseNone, a.id, p)
	until := now + a.cfg.ActiveRouteTimeout
	p.IP.NextHop = r.NextHop
	a.tbl.refresh(r.Dst, until)
	a.tbl.refresh(r.NextHop, until)
	a.net.Send(p)
}

func (a *Agent) bufferAndDiscover(p *packet.Packet) {
	a.bufferAndDiscoverMode(p, false, span.CauseNone)
}

// bufferAndDiscoverMode buffers p pending discovery; cause distinguishes a
// plain no-route buffer (CauseNone) from local repair and source salvage in
// the span record.
func (a *Agent) bufferAndDiscoverMode(p *packet.Packet, repair bool, cause span.Cause) {
	d := a.disc[p.IP.Dst]
	if d == nil {
		d = &discovery{ttl: a.cfg.TTLStart, repair: repair}
		a.disc[p.IP.Dst] = d
		a.sendRREQ(p.IP.Dst, d)
	}
	if len(d.buffer) >= a.cfg.MaxBufferPerDest {
		a.stats.BufferedDropped++
		a.spans.Record(span.OpNetDrop, span.CauseBufOverflow, a.id, p)
		return
	}
	a.spans.Record(span.OpRouteBuf, cause, a.id, p)
	d.buffer = append(d.buffer, p)
}

// sendRREQ floods a request for dst with the discovery's current ring TTL
// and arms the retry timer.
func (a *Agent) sendRREQ(dst packet.NodeID, d *discovery) {
	a.seq++
	a.bcastID++
	a.stats.RREQOriginated++
	rq := &RREQ{
		BcastID:      a.bcastID,
		Dst:          dst,
		Origin:       a.id,
		OriginSeq:    a.seq,
		OriginatedAt: a.sched.Now(),
	}
	if e := a.tbl.lookup(dst); e != nil && e.SeqValid {
		rq.DstSeq = e.Seq
		rq.DstKnown = true
	}
	a.seen[seenKey{a.id, a.bcastID}] = a.sched.Now() + a.cfg.BcastIDSave
	p := a.pf.New(packet.TypeAODV, rreqSize, a.sched.Now())
	a.stats.RREQBytes += rreqSize
	p.IP = packet.IPHdr{
		Src: a.id, Dst: packet.Broadcast,
		SrcPort: aodvPort, DstPort: aodvPort,
		TTL: d.ttl, NextHop: packet.Broadcast,
	}
	p.Payload = rq
	a.net.Send(p)

	wait := 2 * sim.Time(float64(d.ttl)) * a.cfg.NodeTraversalTime
	d.timer = a.sched.ScheduleKind(sim.KindRouting, wait, func() { a.onDiscoveryTimeout(dst) })
}

func (a *Agent) onDiscoveryTimeout(dst packet.NodeID) {
	d := a.disc[dst]
	if d == nil {
		return
	}
	d.retries++
	if d.retries > a.cfg.RREQRetries {
		a.stats.BufferedDropped += len(d.buffer)
		for _, bp := range d.buffer {
			a.spans.Record(span.OpNetDrop, span.CauseDiscoveryFail, a.id, bp)
		}
		if d.repair {
			// The repair failed: now the upstream sources must hear about
			// the broken route.
			a.stats.RepairsFailed++
			a.sendRERR([]Unreachable{{Dst: dst, Seq: a.seqOf(dst)}})
		}
		delete(a.disc, dst)
		return
	}
	if d.ttl < a.cfg.TTLThreshold {
		d.ttl += a.cfg.TTLIncrement
	} else {
		d.ttl = a.cfg.NetDiameter
	}
	a.sendRREQ(dst, d)
}

// HandleIncoming implements netlayer.Routing.
func (a *Agent) HandleIncoming(p *packet.Packet) {
	if p.Type == packet.TypeAODV {
		switch m := p.Payload.(type) {
		case *RREQ:
			a.recvRREQ(p, m)
		case *RREP:
			a.recvRREP(p, m)
		case *RERR:
			a.recvRERR(p, m)
		}
		return
	}
	a.handleData(p)
}

func (a *Agent) handleData(p *packet.Packet) {
	now := a.sched.Now()
	a.noteNeighbor(p.Mac.Src)
	if p.IP.Dst == a.id {
		a.net.DeliverLocally(p)
		return
	}
	p.IP.TTL--
	if p.IP.TTL <= 0 {
		a.stats.DataTTLExpired++
		a.spans.Record(span.OpNetDrop, span.CauseTTLExpired, a.id, p)
		a.pf.Release(p)
		return
	}
	r := a.tbl.valid(p.IP.Dst, now)
	if r == nil {
		// Forwarding failure: report back toward the source. The route
		// error is built before p is released: it reads p's destination.
		a.stats.DataNoRoute++
		a.spans.Record(span.OpNetDrop, span.CauseNoRoute, a.id, p)
		a.sendRERR([]Unreachable{{Dst: p.IP.Dst, Seq: a.seqOf(p.IP.Dst)}})
		a.pf.Release(p)
		return
	}
	p.NumForwards++
	a.chk.Forward(now, p.UID, p.IP.TTL, p.NumForwards)
	a.spans.Record(span.OpFwd, span.CauseNone, a.id, p)
	a.stats.DataForwarded++
	// Traffic keeps the whole chain alive: destination, next hop, source,
	// and previous hop (RFC 3561 §6.2 last paragraph).
	until := now + a.cfg.ActiveRouteTimeout
	a.tbl.refresh(p.IP.Src, until)
	a.tbl.refresh(p.Mac.Src, until)
	a.useRoute(p, r)
}

func (a *Agent) seqOf(dst packet.NodeID) uint32 {
	if e := a.tbl.lookup(dst); e != nil {
		return e.Seq
	}
	return 0
}

func (a *Agent) recvRREQ(p *packet.Packet, rq *RREQ) {
	now := a.sched.Now()
	from := p.Mac.Src
	a.noteNeighbor(from)
	if rq.Origin == a.id {
		return // our own flood echoed back
	}
	if now-rq.OriginatedAt > a.cfg.BcastIDSave {
		// The flood has outlived its dedup window (it sat in slow MAC
		// queues): discard it, or expired seen-entries would let it echo
		// between neighbors forever.
		a.stats.RREQStale++
		return
	}
	key := seenKey{rq.Origin, rq.BcastID}
	if _, dup := a.seen[key]; dup {
		a.stats.RREQDuplicates++
		return
	}
	// The entry must outlast every copy of the flood still in flight; the
	// age check above guarantees none survives past OriginatedAt + save.
	a.seen[key] = rq.OriginatedAt + a.cfg.BcastIDSave
	a.pruneSeen(now)

	// Route back to the previous hop and to the originator.
	a.tbl.update(from, 0, false, 1, from, now+a.cfg.ActiveRouteTimeout)
	a.tbl.update(rq.Origin, rq.OriginSeq, true, rq.HopCount+1, from, now+a.cfg.ActiveRouteTimeout)

	if rq.Dst == a.id {
		// We are the destination: answer with our own sequence number,
		// first advancing it to at least the requester's view.
		if rq.DstKnown && int32(rq.DstSeq-a.seq) > 0 {
			a.seq = rq.DstSeq
		}
		a.sendRREP(rq.Origin, a.id, 0, a.seq, a.cfg.MyRouteTimeout, from)
		return
	}
	if fr := a.tbl.valid(rq.Dst, now); fr != nil && fr.SeqValid && (!rq.DstKnown || int32(fr.Seq-rq.DstSeq) >= 0) {
		// Intermediate node with a fresh-enough route replies on the
		// destination's behalf.
		fr.Precursors[from] = true
		if rev := a.tbl.lookup(rq.Origin); rev != nil {
			rev.Precursors[fr.NextHop] = true
		}
		a.sendRREP(rq.Origin, rq.Dst, fr.Hops, fr.Seq, fr.Expiry-now, from)
		return
	}
	// Rebroadcast the flood while TTL remains, after a desynchronising
	// jitter.
	if p.IP.TTL <= 1 {
		return
	}
	fwd := a.pf.New(packet.TypeAODV, rreqSize, now)
	a.stats.RREQBytes += rreqSize
	fwd.IP = packet.IPHdr{
		Src: a.id, Dst: packet.Broadcast,
		SrcPort: aodvPort, DstPort: aodvPort,
		TTL: p.IP.TTL - 1, NextHop: packet.Broadcast,
	}
	frq := *rq
	frq.HopCount++
	fwd.Payload = &frq
	a.stats.RREQForwarded++
	a.sched.ScheduleKind(sim.KindRouting, a.rng.Duration(0, a.cfg.BroadcastJitter), func() {
		a.net.Send(fwd)
	})
}

// sendRREP unicasts a reply toward origin via nextHop.
func (a *Agent) sendRREP(origin, dst packet.NodeID, hops int, seq uint32, lifetime sim.Time, nextHop packet.NodeID) {
	a.stats.RREPOriginated++
	p := a.pf.New(packet.TypeAODV, rrepSize, a.sched.Now())
	a.stats.RREPBytes += rrepSize
	p.IP = packet.IPHdr{
		Src: a.id, Dst: origin,
		SrcPort: aodvPort, DstPort: aodvPort,
		TTL: netlayer.DefaultTTL, NextHop: nextHop,
	}
	p.Payload = &RREP{HopCount: hops, Dst: dst, DstSeq: seq, Origin: origin, Lifetime: lifetime}
	a.net.Send(p)
}

func (a *Agent) recvRREP(p *packet.Packet, rp *RREP) {
	now := a.sched.Now()
	from := p.Mac.Src
	if rp.Hello {
		a.neighbors[from] = now
		life := sim.Time(float64(a.cfg.AllowedHelloLoss+1)) * a.cfg.HelloInterval
		if life == 0 {
			life = a.cfg.ActiveRouteTimeout
		}
		a.tbl.update(rp.Dst, rp.DstSeq, true, 1, from, now+life)
		return
	}
	a.noteNeighbor(from)
	a.tbl.update(from, 0, false, 1, from, now+a.cfg.ActiveRouteTimeout)
	a.tbl.update(rp.Dst, rp.DstSeq, true, rp.HopCount+1, from, now+rp.Lifetime)

	if rp.Origin == a.id {
		// Our discovery completed: release everything buffered for dst.
		if d := a.disc[rp.Dst]; d != nil {
			d.timer.Cancel()
			delete(a.disc, rp.Dst)
			r := a.tbl.valid(rp.Dst, now)
			for _, bp := range d.buffer {
				if r == nil {
					a.stats.BufferedDropped++
					a.spans.Record(span.OpNetDrop, span.CauseDiscoveryFail, a.id, bp)
					continue
				}
				a.useRoute(bp, r)
			}
		}
		return
	}
	// Forward the reply one hop toward the origin along the reverse route.
	rev := a.tbl.valid(rp.Origin, now)
	if rev == nil {
		return
	}
	if fr := a.tbl.lookup(rp.Dst); fr != nil {
		fr.Precursors[rev.NextHop] = true
	}
	if rr := a.tbl.lookup(rp.Origin); rr != nil {
		rr.Precursors[from] = true
	}
	fwd := a.pf.New(packet.TypeAODV, rrepSize, now)
	a.stats.RREPBytes += rrepSize
	fwd.IP = packet.IPHdr{
		Src: a.id, Dst: rp.Origin,
		SrcPort: aodvPort, DstPort: aodvPort,
		TTL: p.IP.TTL - 1, NextHop: rev.NextHop,
	}
	frp := *rp
	frp.HopCount++
	fwd.Payload = &frp
	a.stats.RREPForwarded++
	a.net.Send(fwd)
}

func (a *Agent) recvRERR(p *packet.Packet, re *RERR) {
	from := p.Mac.Src
	var propagate []Unreachable
	for _, u := range re.Dests {
		r := a.tbl.lookup(u.Dst)
		if r == nil || !r.Valid || r.NextHop != from {
			continue
		}
		if int32(u.Seq-r.Seq) > 0 {
			r.Seq = u.Seq
			r.SeqValid = true
		}
		hadPrecursors := len(r.Precursors) > 0
		r.Valid = false
		r.Hops = infinityHops
		if hadPrecursors {
			propagate = append(propagate, Unreachable{Dst: u.Dst, Seq: r.Seq})
		}
	}
	if len(propagate) > 0 {
		a.sendRERR(propagate)
	}
}

// sendRERR broadcasts a route error one hop.
func (a *Agent) sendRERR(dests []Unreachable) {
	if len(dests) == 0 {
		return
	}
	a.stats.RERRSent++
	p := a.pf.New(packet.TypeAODV, rerrSize(len(dests)), a.sched.Now())
	a.stats.RERRBytes += rerrSize(len(dests))
	p.IP = packet.IPHdr{
		Src: a.id, Dst: packet.Broadcast,
		SrcPort: aodvPort, DstPort: aodvPort,
		TTL: 1, NextHop: packet.Broadcast,
	}
	p.Payload = &RERR{Dests: dests}
	a.net.Send(p)
}

// MacTxDone implements netlayer.Routing: a failed unicast is a broken link.
func (a *Agent) MacTxDone(p *packet.Packet, ok bool) {
	if ok {
		return
	}
	a.linkBreak(p.Mac.Dst, p)
}

// linkBreak invalidates every route through the lost neighbour, emits a
// route error, and salvages the undelivered packet if we originated it.
func (a *Agent) linkBreak(neighbour packet.NodeID, p *packet.Packet) {
	a.stats.LinkBreaks++
	delete(a.neighbors, neighbour)

	// Decide whether the in-flight packet's destination is worth a local
	// repair (RFC 3561 §6.12): we were forwarding (not the source) and
	// the destination was close enough. Must be checked before the route
	// is invalidated, while its hop count is still meaningful.
	repairDst := packet.None
	isData := p != nil && p.Type != packet.TypeAODV && p.IP.Dst != packet.Broadcast
	if a.cfg.LocalRepair && isData && p.IP.Src != a.id {
		if r := a.tbl.lookup(p.IP.Dst); r != nil && r.Valid && r.NextHop == neighbour && r.Hops <= a.cfg.MaxRepairHops {
			repairDst = p.IP.Dst
		}
	}

	var dests []Unreachable
	for _, r := range a.tbl.brokenVia(neighbour) {
		a.tbl.invalidate(r.Dst)
		if r.Dst == repairDst {
			continue // route error deferred until the repair verdict
		}
		if len(r.Precursors) > 0 {
			dests = append(dests, Unreachable{Dst: r.Dst, Seq: r.Seq})
		}
	}
	if len(dests) > 0 {
		a.sendRERR(dests)
	}

	switch {
	case repairDst != packet.None:
		a.stats.RepairsStarted++
		a.bufferAndDiscoverMode(p, true, span.CauseRepair)
	case isData && p.IP.Src == a.id:
		// Source salvage: rediscover and retry rather than silently lose
		// locally originated data.
		a.stats.Salvaged++
		a.bufferAndDiscoverMode(p, false, span.CauseSalvage)
	}
}

// onHelloTimer broadcasts a hello and expires silent neighbours.
func (a *Agent) onHelloTimer() {
	now := a.sched.Now()
	a.stats.HellosSent++
	p := a.pf.New(packet.TypeAODV, helloSize, now)
	a.stats.HelloBytes += helloSize
	p.IP = packet.IPHdr{
		Src: a.id, Dst: packet.Broadcast,
		SrcPort: aodvPort, DstPort: aodvPort,
		TTL: 1, NextHop: packet.Broadcast,
	}
	p.Payload = &RREP{Dst: a.id, DstSeq: a.seq, Lifetime: sim.Time(float64(a.cfg.AllowedHelloLoss+1)) * a.cfg.HelloInterval, Hello: true}
	a.net.Send(p)

	deadline := now - sim.Time(float64(a.cfg.AllowedHelloLoss))*a.cfg.HelloInterval
	for n, last := range a.neighbors {
		if last < deadline {
			a.linkBreak(n, nil)
		}
	}
	a.helloTimer = a.sched.ScheduleKind(sim.KindRouting, a.cfg.HelloInterval, a.onHelloTimer)
}

// noteNeighbor records that we heard from a neighbour (hello bookkeeping).
func (a *Agent) noteNeighbor(n packet.NodeID) {
	if a.cfg.HelloInterval <= 0 {
		// Hello mode off: nothing ever reads the last-heard table, so the
		// per-reception map write would be pure overhead on the hot path.
		return
	}
	if n == packet.None || n == packet.Broadcast {
		return
	}
	a.neighbors[n] = a.sched.Now()
}

// pruneSeen drops expired RREQ-dedup entries; called opportunistically.
func (a *Agent) pruneSeen(now sim.Time) {
	if len(a.seen) < 256 {
		return
	}
	for k, exp := range a.seen {
		if exp <= now {
			delete(a.seen, k)
		}
	}
}
