package packet

import "testing"

// TestReleasedPacketIsRecycledInFull pins the pool: New hands back the
// released struct with every field reset, and with the same UID sequence
// as an unpooled factory.
func TestReleasedPacketIsRecycledInFull(t *testing.T) {
	if !Recycles {
		t.Skip("the checkall build quarantines released packets")
	}
	var f Factory
	p := f.New(TypeTCP, 1040, 1)
	p.SetTCP(TCPHdr{Seq: 4, Retransmit: true})
	p.Payload = &fakePayload{val: 7}
	p.IP = IPHdr{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, TTL: 5, NextHop: 6}
	p.Mac = MacHdr{Src: 1, Dst: 2, Subtype: MacRTS, Duration: 1, Retries: 2}
	p.SentAt, p.NumForwards = 2, 3
	f.Release(p)
	if f.Pooled() != 1 {
		t.Fatalf("Pooled = %d after one release, want 1", f.Pooled())
	}

	q := f.New(TypeCBR, 64, 9)
	if q != p {
		t.Fatal("New allocated instead of reusing the released packet")
	}
	fresh := (&Factory{next: 1}).New(TypeCBR, 64, 9)
	got := *q
	got.spare = nil
	if got != *fresh {
		t.Fatalf("recycled packet not reset in full:\n got %+v\nwant %+v", got, *fresh)
	}
	if f.Allocated() != 2 {
		t.Fatalf("Allocated = %d, want 2", f.Allocated())
	}
	// The old payload waits, out of sight, for an in-place rewrite.
	if old, ok := q.ReusePayload().(*fakePayload); !ok || old.val != 7 {
		t.Fatal("recycled packet lost its spare payload")
	}
	if q.ReusePayload() != nil {
		t.Fatal("ReusePayload handed the same payload out twice")
	}
}

// TestFactoryCloneReusesPooledStorage pins Clone on a recycled packet: the
// packet, its TCP header and a same-typed payload are all reused, and
// nothing aliases the source.
func TestFactoryCloneReusesPooledStorage(t *testing.T) {
	if !Recycles {
		t.Skip("the checkall build quarantines released packets")
	}
	var f Factory
	src := f.New(TypeTCP, 1040, 1)
	src.SetTCP(TCPHdr{Seq: 9})
	src.Payload = &reusablePayload{val: 42}
	old := f.New(TypeTCP, 100, 0)
	oldPayload := &reusablePayload{val: 1}
	old.Payload = oldPayload
	f.Release(old)

	c := f.Clone(src)
	if c != old || c.Payload != oldPayload {
		t.Fatal("Clone did not reuse the pooled packet and payload")
	}
	if c.UID != src.UID || c.TCP.Seq != 9 || c.Payload.(*reusablePayload).val != 42 {
		t.Fatalf("clone content wrong: %+v", *c)
	}
	if c.TCP == src.TCP {
		t.Fatal("clone shares the source's TCP header")
	}
	c.TCP.Seq = 1
	if src.TCP.Seq != 9 {
		t.Fatal("mutating the clone's TCP header reached the source")
	}
}

// TestPoisonedPacketFailsLoudly shows what a use after release reads in
// the checkall build: every scalar is an impossible value (a digest
// mismatch downstream) and the TCP header and payload are gone (a nil
// dereference).
func TestPoisonedPacketFailsLoudly(t *testing.T) {
	var f Factory
	p := f.New(TypeTCP, 1040, 1)
	p.SetTCP(TCPHdr{Seq: 4})
	p.Payload = &fakePayload{val: 7}
	p.IP.Src, p.IP.Dst = 1, 2
	p.poison()

	if !p.poisoned() || p.UID == 1 || p.Size > 0 || p.Type.String() == "tcp" ||
		p.IP.Src == 1 || p.IP.Dst == 2 || p.SentAt == p.SentAt {
		t.Fatalf("poison left live-looking fields: %+v", *p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a poisoned packet's TCP header did not panic")
		}
	}()
	_ = p.TCP.Seq
}

// TestCheckallReleasePoisons pins the checkall Release: it poisons instead
// of recycling, and a second release of the same packet panics.
func TestCheckallReleasePoisons(t *testing.T) {
	if Recycles {
		t.Skip("only the checkall build poisons released packets")
	}
	var f Factory
	p := f.New(TypeCBR, 64, 0)
	f.Release(p)
	if !p.poisoned() || f.Pooled() != 0 {
		t.Fatal("checkall Release recycled instead of poisoning")
	}
	if q := f.New(TypeCBR, 64, 0); q == p {
		t.Fatal("a quarantined packet was handed out again")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Release(p)
}

// reusablePayload is a ReusablePayload test double.
type reusablePayload struct{ val int }

func (r *reusablePayload) ClonePayload() Payload {
	c := *r
	return &c
}

func (r *reusablePayload) ClonePayloadOnto(old Payload) (Payload, bool) {
	if o, ok := old.(*reusablePayload); ok {
		*o = *r
		return o, true
	}
	return nil, false
}
