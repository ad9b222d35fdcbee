package mac

import (
	"testing"

	"beaconsec/internal/crypto"
	"beaconsec/internal/geo"
	"beaconsec/internal/ident"
	"beaconsec/internal/packet"
	"beaconsec/internal/phy"
	"beaconsec/internal/rng"
	"beaconsec/internal/sim"
)

type fixture struct {
	sched  *sim.Scheduler
	medium *phy.Medium
	master *crypto.Master
	keys   *crypto.Keyring
	src    *rng.Source
}

func newFixture(rangeFt float64) *fixture {
	sched := sim.New()
	src := rng.New(42)
	master := crypto.NewMaster([]byte("test"))
	return &fixture{
		sched:  sched,
		medium: phy.NewMedium(sched, src.Split("medium"), phy.Config{Range: rangeFt}),
		master: master,
		keys:   crypto.NewKeyring(master),
		src:    src,
	}
}

func (f *fixture) endpoint(pos geo.Point, ids ...ident.NodeID) *Endpoint {
	store := crypto.NewStore(f.keys, ids...)
	radio := f.medium.NewRadio(pos)
	return NewEndpoint(f.sched, radio, store, f.src.SplitIndex(uint64(ids[0])))
}

func TestUnicastDelivery(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var got []Delivery
	b.SetHandler(func(d Delivery) { got = append(got, d) })
	seq := a.Send(2, packet.BeaconRequest{}, SendOptions{})
	f.sched.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	d := got[0]
	if d.Pkt.Header.Src != 1 || d.Pkt.Header.Dst != 2 || d.Pkt.Header.Seq != seq {
		t.Errorf("header = %+v", d.Pkt.Header)
	}
	if d.Local != 2 {
		t.Errorf("Local = %v, want 2", d.Local)
	}
	if _, ok := d.Pkt.Payload.(packet.BeaconRequest); !ok {
		t.Errorf("payload = %T", d.Pkt.Payload)
	}
	if d.MeasuredDist != 100 {
		t.Errorf("MeasuredDist = %v (perfect ranging), want 100", d.MeasuredDist)
	}
}

func TestUnicastNotDeliveredToThirdParty(t *testing.T) {
	// The third party's radio filters the frame by link address: its
	// endpoint never sees it and counts nothing.
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	_ = f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	c := f.endpoint(geo.Point{X: 50, Y: 0}, 3)
	got, heard := 0, 0
	c.SetHandler(func(Delivery) { got++ })
	c.radio.SetHandler(func(rec phy.Reception) {
		heard++
		c.onReception(rec)
	})
	a.Send(2, packet.BeaconRequest{}, SendOptions{})
	f.sched.Run()
	if got != 0 || heard != 0 {
		t.Errorf("third party received %d packets, its radio handler ran %d times", got, heard)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("third party's stats = %+v, want all zero", s)
	}
	// The same packet with no link address reaches the third party's
	// endpoint, which counts it as NotForUs.
	data, err := packet.Encode(1, 2, 9, packet.BeaconRequest{}, f.keys.Pair(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	f.medium.Transmit(f.medium.NewRadio(geo.Point{X: 50, Y: 10}), phy.Frame{Data: data})
	f.sched.Run()
	if got != 0 || heard != 1 || c.Stats().NotForUs != 1 {
		t.Errorf("unaddressed frame: %d packets, %d receptions, NotForUs = %d; want 0, 1, 1",
			got, heard, c.Stats().NotForUs)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	c := f.endpoint(geo.Point{X: 0, Y: 100}, 3)
	bGot, cGot := 0, 0
	b.SetHandler(func(d Delivery) {
		if d.Local != ident.Broadcast {
			t.Errorf("broadcast Local = %v", d.Local)
		}
		bGot++
	})
	c.SetHandler(func(Delivery) { cGot++ })
	a.Send(ident.Broadcast, packet.Hello{}, SendOptions{})
	f.sched.Run()
	if bGot != 1 || cGot != 1 {
		t.Errorf("broadcast delivered b=%d c=%d, want 1,1", bGot, cGot)
	}
}

func TestDetectingIdentitySend(t *testing.T) {
	// A beacon node (ID 1) probing under detecting pseudonym 900 must be
	// received and authenticated by the target exactly as if node 900
	// sent it — and the target cannot see it came from a beacon node.
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1, 900)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var got []Delivery
	b.SetHandler(func(d Delivery) { got = append(got, d) })
	a.Send(2, packet.BeaconRequest{}, SendOptions{Identity: 900})
	f.sched.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if got[0].Pkt.Header.Src != 900 {
		t.Errorf("Src = %v, want 900", got[0].Pkt.Header.Src)
	}
}

func TestReplyReachesDetectingIdentity(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1, 900)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var aGot []Delivery
	a.SetHandler(func(d Delivery) { aGot = append(aGot, d) })
	b.SetHandler(func(d Delivery) {
		b.Send(d.Pkt.Header.Src, packet.BeaconReply{Loc: geo.Point{X: 100}, Echo: d.Pkt.Header.Seq}, SendOptions{})
	})
	a.Send(2, packet.BeaconRequest{}, SendOptions{Identity: 900})
	f.sched.Run()
	if len(aGot) != 1 {
		t.Fatalf("probe reply count = %d, want 1", len(aGot))
	}
	if aGot[0].Local != 900 {
		t.Errorf("reply Local = %v, want 900", aGot[0].Local)
	}
}

func TestSendUnderUnownedIdentityPanics(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic for unowned identity")
		}
	}()
	a.Send(2, packet.BeaconRequest{}, SendOptions{Identity: 99})
}

func TestForgedPacketRejected(t *testing.T) {
	// An external attacker without the pairwise key injects a forged
	// beacon reply; the MAC must reject it (paper: "beacon packets
	// forged by external attackers that do not have the right keys can
	// be easily filtered out").
	f := newFixture(150)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	got := 0
	b.SetHandler(func(Delivery) { got++ })
	var wrongKey crypto.Key
	wrongKey[5] = 0x66
	wrong := crypto.NewMAC(wrongKey)
	data, err := packet.Encode(1, 2, 7, packet.BeaconReply{Loc: geo.Point{X: 5}}, &wrong)
	if err != nil {
		t.Fatal(err)
	}
	f.medium.Inject(f.medium.NewPort(geo.Point{X: 0, Y: 0}), phy.Frame{Data: data})
	f.sched.Run()
	if got != 0 {
		t.Errorf("forged packet delivered %d times", got)
	}
	if b.Stats().AuthFail != 1 {
		t.Errorf("AuthFail = %d, want 1", b.Stats().AuthFail)
	}
}

func TestComposeReceivesT3(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var got packet.BeaconReply
	n := 0
	b.SetHandler(func(d Delivery) {
		got = d.Pkt.Payload.(packet.BeaconReply)
		n++
	})
	var sentAt sim.Time
	f.sched.At(1000, func() {
		a.Send(2, packet.BeaconReply{}, SendOptions{
			Compose: func(t3 sim.Time) any {
				sentAt = t3
				return packet.BeaconReply{Loc: geo.Point{X: 1}, Turnaround: uint32(t3), Echo: 9}
			},
		})
	})
	f.sched.Run()
	if n != 1 {
		t.Fatalf("delivered %d", n)
	}
	if sentAt == 0 {
		t.Fatal("Compose not called")
	}
	if got.Turnaround != uint32(sentAt) || got.Echo != 9 {
		t.Errorf("composed payload not transmitted: %+v (t3=%v)", got, sentAt)
	}
}

// TestComposedFrameOnAirIsEncoding pins that sizing a composed frame
// without signing it changes nothing on air: the bytes launched are
// exactly packet.Encode of the composed payload.
func TestComposedFrameOnAirIsEncoding(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1, 900)
	_ = f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var onAir [][]byte
	f.medium.AddTap(func(_ geo.Point, fr phy.Frame, _ phy.TxInfo) {
		onAir = append(onAir, append([]byte(nil), fr.Data...))
	})
	composed := func(t3 sim.Time) packet.BeaconReply {
		return packet.BeaconReply{Loc: geo.Point{X: 3, Y: -4}, Turnaround: uint32(t3) * 7, Echo: 5}
	}
	var seq uint16
	var t3 sim.Time
	f.sched.At(1000, func() {
		seq = a.Send(2, packet.BeaconReply{}, SendOptions{
			Identity: 900,
			Compose: func(at sim.Time) any {
				t3 = at
				return composed(at)
			},
		})
	})
	f.sched.Run()
	if len(onAir) != 1 {
		t.Fatalf("%d frames on air, want 1", len(onAir))
	}
	pair := crypto.NewMAC(f.master.Pairwise(900, 2))
	want, err := packet.Encode(900, 2, seq, composed(t3), &pair)
	if err != nil {
		t.Fatal(err)
	}
	if string(onAir[0]) != string(want) {
		t.Errorf("on air %x, want packet.Encode of the composed payload %x", onAir[0], want)
	}
}

func TestCSMADefersUntilIdle(t *testing.T) {
	f := newFixture(1000)
	// A long foreign transmission occupies the channel; an endpoint that
	// wants to send must defer and still succeed afterwards.
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	got := 0
	b.SetHandler(func(d Delivery) {
		if _, isReq := d.Pkt.Payload.(packet.BeaconRequest); isReq {
			got++
		}
	})

	bk := f.keys.Broadcast()
	data, err := packet.Encode(5, ident.Broadcast, 1, packet.Hello{}, bk)
	if err != nil {
		t.Fatal(err)
	}
	port := f.medium.NewPort(geo.Point{X: 50, Y: 0})
	f.sched.At(0, func() {
		f.medium.Inject(port, phy.Frame{Data: data})
	})
	var sentOK bool
	var sentInfo phy.TxInfo
	f.sched.At(100, func() {
		a.Send(2, packet.BeaconRequest{}, SendOptions{OnSent: func(info phy.TxInfo, ok bool) {
			sentOK = ok
			sentInfo = info
		}})
	})
	f.sched.Run()
	if !sentOK {
		t.Fatal("CSMA dropped the frame")
	}
	blockEnd := phy.FrameAirTime(len(data))
	if sentInfo.AirStart < blockEnd {
		t.Errorf("transmission started at %v during foreign frame (ends %v)", sentInfo.AirStart, blockEnd)
	}
	if got != 1 {
		t.Errorf("delivered %d, want 1", got)
	}
}

func TestOnSentReportsTiming(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	_ = f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var info phy.TxInfo
	ok := false
	a.Send(2, packet.BeaconRequest{}, SendOptions{OnSent: func(i phy.TxInfo, o bool) { info, ok = i, o }})
	f.sched.Run()
	if !ok {
		t.Fatal("OnSent not called with success")
	}
	if info.AirEnd <= info.AirStart {
		t.Errorf("TxInfo = %+v", info)
	}
	// t1 may precede AirStart by up to the jitter (register preload) but
	// never exceeds the first byte's air-finish time.
	if info.FirstByteSPDR > info.AirStart+phy.CyclesPerByte {
		t.Errorf("FirstByteSPDR %v after first byte air time (start %v)", info.FirstByteSPDR, info.AirStart)
	}
}

func TestSeqIncrements(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	s1 := a.NextSeq()
	s2 := a.NextSeq()
	if s2 != s1+1 {
		t.Errorf("NextSeq: %d then %d", s1, s2)
	}
}

func TestStatsCounters(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	b.SetHandler(func(Delivery) {})
	a.Send(2, packet.BeaconRequest{}, SendOptions{})
	f.sched.Run()
	if a.Stats().Sent != 1 {
		t.Errorf("Sent = %d", a.Stats().Sent)
	}
	if b.Stats().Delivered != 1 {
		t.Errorf("Delivered = %d", b.Stats().Delivered)
	}
}

func TestTruthPropagation(t *testing.T) {
	f := newFixture(150)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var truth Truth
	n := 0
	b.SetHandler(func(d Delivery) { truth = d.Truth; n++ })
	key := f.keys.Pair(1, 2)
	data, err := packet.Encode(1, 2, 3, packet.BeaconRequest{}, key)
	if err != nil {
		t.Fatal(err)
	}
	f.medium.Inject(f.medium.NewPort(geo.Point{X: 0, Y: 0}), phy.Frame{Data: data, Replayed: true, WormholeMark: true})
	f.sched.Run()
	if n != 1 {
		t.Fatalf("delivered %d", n)
	}
	if !truth.Replayed || !truth.WormholeMark {
		t.Errorf("Truth = %+v, want both flags", truth)
	}
}

func TestCSMAExhaustionDropsFrame(t *testing.T) {
	// A channel jammed for longer than the full backoff schedule forces
	// the MAC to drop and report failure.
	f := newFixture(1000)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	_ = f.endpoint(geo.Point{X: 100, Y: 0}, 2)

	// Jam: back-to-back foreign frames for a long time.
	bk := f.keys.Broadcast()
	data, err := packet.Encode(5, ident.Broadcast, 1, packet.Hello{}, bk)
	if err != nil {
		t.Fatal(err)
	}
	frameTime := phy.FrameAirTime(len(data))
	jammer := f.medium.NewPort(geo.Point{X: 50, Y: 0})
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * frameTime
		f.sched.At(at, func() {
			f.medium.Inject(jammer, phy.Frame{Data: data})
		})
	}
	dropped := false
	f.sched.At(10, func() {
		a.Send(2, packet.BeaconRequest{}, SendOptions{OnSent: func(_ phy.TxInfo, ok bool) {
			dropped = !ok
		}})
	})
	f.sched.Run()
	if !dropped {
		t.Error("MAC never gave up on a jammed channel")
	}
	if a.Stats().CSMADrops != 1 {
		t.Errorf("CSMADrops = %d", a.Stats().CSMADrops)
	}
}

func TestSendSeqMatchesCallerSequence(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var got uint16
	b.SetHandler(func(d Delivery) { got = d.Pkt.Header.Seq })
	seq := a.NextSeq()
	a.SendSeq(2, seq, packet.BeaconRequest{}, SendOptions{})
	f.sched.Run()
	if got != seq {
		t.Errorf("delivered seq %d, want %d", got, seq)
	}
}
