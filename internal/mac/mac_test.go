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
	return NewEndpoint(f.sched, radio, store, f.src.MakeIndex(uint64(ids[0])))
}

// doneFunc adapts a func to Done.
type doneFunc func(seq uint16, info phy.TxInfo, ok bool)

func (f doneFunc) Sent(seq uint16, info phy.TxInfo, ok bool) { f(seq, info, ok) }

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
	data, err := packet.EncodeTo(nil, 1, 2, 9, packet.BeaconRequest{}, f.keys.Pair(1, 2))
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
	data, err := packet.EncodeTo(nil, 1, 2, 7, packet.BeaconReply{Loc: geo.Point{X: 5}}, &wrong)
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

// TestComposeReceivesT3 pins the reply turnaround the endpoint writes at
// launch: t3 - T2 for a benign reply, less the skew for a malicious one,
// and 0 once the skew reaches the turnaround, where t3 is the reply's own
// first-byte register timestamp (the FirstByteSPDR its Done reports).
func TestComposeReceivesT3(t *testing.T) {
	for _, c := range []struct {
		name string
		skew uint32
	}{{"benign", 0}, {"skewed", 1000}, {"saturated", 1 << 31}} {
		f := newFixture(150)
		a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
		b := f.endpoint(geo.Point{X: 100, Y: 0}, 2)
		var got packet.BeaconReply
		n := 0
		b.SetHandler(func(d Delivery) {
			got = d.Pkt.Payload.(packet.BeaconReply)
			n++
		})
		const t2 = 500
		var t3 sim.Time
		f.sched.At(100000, func() {
			a.Send(2, packet.BeaconReply{Loc: geo.Point{X: 1}, Turnaround: 77, Echo: 9}, SendOptions{
				T2:   t2,
				Skew: c.skew,
				Done: doneFunc(func(_ uint16, info phy.TxInfo, _ bool) { t3 = info.FirstByteSPDR }),
			})
		})
		f.sched.Run()
		if n != 1 {
			t.Fatalf("%s: delivered %d", c.name, n)
		}
		turn := uint32(t3 - t2)
		want := turn - min(c.skew, turn)
		if got.Turnaround != want || got.Echo != 9 || got.Loc != (geo.Point{X: 1}) {
			t.Errorf("%s: reply %+v (t3=%v), want turnaround %d", c.name, got, t3, want)
		}
	}
}

// TestComposedFrameOnAirIsEncoding pins that writing the turnaround at
// launch changes nothing else on air: the bytes launched are exactly the
// encoding of the reply carrying that turnaround.
func TestComposedFrameOnAirIsEncoding(t *testing.T) {
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1, 900)
	_ = f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	var onAir [][]byte
	f.medium.AddTap(func(_ geo.Point, fr phy.Frame, _ phy.TxInfo) {
		onAir = append(onAir, append([]byte(nil), fr.Data...))
	})
	var seq uint16
	var t3 sim.Time
	f.sched.At(1000, func() {
		seq = a.Send(2, packet.BeaconReply{Loc: geo.Point{X: 3, Y: -4}, Echo: 5}, SendOptions{
			Identity: 900,
			T2:       200,
			Done:     doneFunc(func(_ uint16, info phy.TxInfo, _ bool) { t3 = info.FirstByteSPDR }),
		})
	})
	f.sched.Run()
	if len(onAir) != 1 {
		t.Fatalf("%d frames on air, want 1", len(onAir))
	}
	pair := crypto.NewMAC(f.master.Pairwise(900, 2))
	reply := packet.BeaconReply{Loc: geo.Point{X: 3, Y: -4}, Turnaround: uint32(t3 - 200), Echo: 5}
	want, err := packet.EncodeTo(nil, 900, 2, seq, reply, &pair)
	if err != nil {
		t.Fatal(err)
	}
	if string(onAir[0]) != string(want) {
		t.Errorf("on air %x, want the encoding of the finished reply %x", onAir[0], want)
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
	data, err := packet.EncodeTo(nil, 5, ident.Broadcast, 1, packet.Hello{}, bk)
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
		a.Send(2, packet.BeaconRequest{}, SendOptions{Done: doneFunc(func(_ uint16, info phy.TxInfo, ok bool) {
			sentOK = ok
			sentInfo = info
		})})
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
	var doneSeq uint16
	seq := a.Send(2, packet.BeaconRequest{}, SendOptions{Done: doneFunc(func(s uint16, i phy.TxInfo, o bool) {
		doneSeq, info, ok = s, i, o
	})})
	f.sched.Run()
	if !ok {
		t.Fatal("Done not told of a success")
	}
	if doneSeq != seq {
		t.Errorf("Done told of seq %d, want %d", doneSeq, seq)
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
	data, err := packet.EncodeTo(nil, 1, 2, 3, packet.BeaconRequest{}, key)
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
	data, err := packet.EncodeTo(nil, 5, ident.Broadcast, 1, packet.Hello{}, bk)
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
		a.Send(2, packet.BeaconRequest{}, SendOptions{Done: doneFunc(func(_ uint16, _ phy.TxInfo, ok bool) {
			dropped = !ok
		})})
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

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// exchange is a two-endpoint request/reply fixture: a requests, b serves
// a reply whose turnaround the endpoint writes at launch, as a benign
// beacon does.
type exchange struct {
	f       *fixture
	a, b    *Endpoint
	replies int
}

func newExchange() *exchange {
	f := newFixture(150)
	x := &exchange{f: f, a: f.endpoint(geo.Point{X: 0, Y: 0}, 1, 900), b: f.endpoint(geo.Point{X: 100, Y: 0}, 2)}
	x.b.SetHandler(func(d Delivery) {
		x.b.Send(d.Pkt.Header.Src, packet.BeaconReply{Loc: geo.Point{X: 100}, Echo: d.Pkt.Header.Seq},
			SendOptions{T2: d.FirstByteSPDR})
	})
	x.a.SetHandler(func(d Delivery) {
		if _, ok := d.Pkt.Payload.(packet.BeaconReply); ok {
			x.replies++
		}
	})
	return x
}

// Sent makes the fixture a Done, as a requester is.
func (x *exchange) Sent(uint16, phy.TxInfo, bool) {}

// run sends one request under the detecting identity and runs the
// exchange to quiescence.
func (x *exchange) run() {
	x.a.Send(2, packet.BeaconRequest{}, SendOptions{Identity: 900, Done: x})
	x.f.sched.Run()
}

// TestExchangeAllocs pins what a warmed request/reply exchange costs the
// heap: one object, the box packet.Decode puts the decoded reply in.
// Sending allocates nothing: each frame lives in a pooled send record,
// encodes its payload into the record's buffer and writes the reply's
// turnaround at launch, and the medium copies the bytes into its pooled
// receptions.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	x := newExchange()
	for i := 0; i < 10; i++ {
		x.run()
	}
	if avg := testing.AllocsPerRun(100, x.run); avg != 1 {
		t.Errorf("an exchange allocates %.1f times, want 1 (the decoded reply's box)", avg)
	}
	if x.replies != 111 {
		t.Errorf("%d replies, want 111", x.replies)
	}
}

// TestCSMABackoffAllocs pins that a CSMA re-attempt allocates nothing:
// the send record files itself on its own event.
func TestCSMABackoffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation behavior; pin not meaningful")
	}
	f := newFixture(150)
	a := f.endpoint(geo.Point{X: 0, Y: 0}, 1)
	_ = f.endpoint(geo.Point{X: 100, Y: 0}, 2)
	jam, err := packet.EncodeTo(nil, 5, ident.Broadcast, 1, packet.Hello{}, f.keys.Broadcast())
	if err != nil {
		t.Fatal(err)
	}
	jammer := f.medium.NewPort(geo.Point{X: 50, Y: 0})
	cycle := func() {
		f.medium.Inject(jammer, phy.Frame{Data: jam})
		a.Send(2, packet.BeaconRequest{}, SendOptions{})
		f.sched.Run()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	before := a.Stats().Backoffs
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("a send that backs off allocates %.1f times, want 0", avg)
	}
	if n := a.Stats().Backoffs - before; n < 101 {
		t.Errorf("%d backoffs in 101 sends into a busy channel, want at least one each", n)
	}
}

// BenchmarkExchange measures one request/reply exchange between two
// endpoints, run to quiescence: two sends, two signatures, two
// receptions and two verifications.
func BenchmarkExchange(b *testing.B) {
	x := newExchange()
	x.run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.run()
	}
}
