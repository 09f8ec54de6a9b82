package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
)

// oracle is a transcription of the pre-grid receiver rule, independent
// of the layout's spatial index and of the unicast fast path: a
// transmission from h addressed to `to` (None = broadcast) is offered to
// every attached, alive, in-range device — replicas of the addressee
// included — found by a scan over all devices in handle order, and each
// offer then runs the medium's drop sequence: jamming, then one loss draw
// from the oracle's own RNG. Built with the medium's seed, the oracle
// consumes the same draws in the same order, so its counters and delivery
// lists must match the medium's exactly. (Inbox overflow is a separate
// process; the oracle assumes roomy inboxes.)
type oracle struct {
	l     *deploy.Layout
	m     *Medium
	jams  []geometry.Circle
	rng   *rand.Rand
	count Counters
}

func newOracle(l *deploy.Layout, m *Medium, jams []geometry.Circle) *oracle {
	return &oracle{l: l, m: m, jams: jams, rng: rand.New(rand.NewSource(m.cfg.Seed))}
}

func (o *oracle) inJam(p geometry.Point) bool {
	for _, c := range o.jams {
		if c.Contains(p) {
			return true
		}
	}
	return false
}

// transmit mirrors Medium.transmit for a send the medium accepted and
// returns the receivers in delivery order.
func (o *oracle) transmit(h deploy.Handle, to nodeid.ID, size int) []deploy.Handle {
	sender := o.l.Device(h)
	o.count.Sent++
	o.count.BytesSent += size
	if o.inJam(sender.Pos) {
		o.count.LostJammed++
		return nil
	}
	var out []deploy.Handle
	for _, d := range o.l.Devices() {
		if d.Handle == h || !d.Alive || o.m.trxAt(d.Handle) == nil {
			continue
		}
		if !sender.Pos.InRange(d.Pos, o.m.cfg.Range) {
			continue
		}
		if to != nodeid.None && d.Node != to {
			continue
		}
		if o.inJam(d.Pos) {
			o.count.LostJammed++
			continue
		}
		if o.m.cfg.LossProb > 0 && o.rng.Float64() < o.m.cfg.LossProb {
			o.count.LostRandom++
			continue
		}
		o.count.Delivered++
		o.count.BytesDelivered += size
		out = append(out, d.Handle)
	}
	return out
}

// TestDeliverySetsMatchOracle cross-checks every transmission against the
// brute-force oracle, draw for draw, on a randomized lossy deployment with
// replicas — near and far, dead, unattached, and unicasting to their own
// ID — dead devices, unattached devices, and a jamming region: the proof
// that resolving broadcasts on the grid index and unicasts through the
// addressee's devices changed nothing about who hears a frame, or which
// loss draw decides it.
func TestDeliverySetsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := deploy.NewLayout(geometry.NewField(150, 150))
	var devs []*deploy.Device
	for i := 0; i < 80; i++ {
		devs = append(devs, l.Deploy(geometry.Point{X: rng.Float64() * 150, Y: rng.Float64() * 150}, 0))
	}
	// Replicas of a few nodes, far from their originals.
	for i := 0; i < 6; i++ {
		d, err := l.DeployReplica(devs[i].Node, geometry.Point{X: rng.Float64() * 150, Y: rng.Float64() * 150}, 1)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}
	// Replicas close to their originals, so unicasts to those IDs reach
	// several devices — including one replica that will die and one that
	// stays off the air.
	var near []*deploy.Device
	for i := 0; i < 4; i++ {
		for k := 0; k < 3; k++ {
			p := devs[i].Pos
			d, err := l.DeployReplica(devs[i].Node, geometry.Point{X: p.X + rng.Float64()*20, Y: p.Y + rng.Float64()*20}, 1)
			if err != nil {
				t.Fatal(err)
			}
			devs = append(devs, d)
			near = append(near, d)
		}
	}
	unattached := near[1].Handle

	m := NewMedium(l, Config{Range: 40, LossProb: 0.3, Seed: 17, InboxSize: 256})
	if !l.HasGrid() {
		t.Fatal("NewMedium did not build the grid index")
	}
	// Attach most devices; leave every 7th off the air.
	for i, d := range devs {
		if i%7 == 3 || d.Handle == unattached {
			continue
		}
		if _, err := m.Attach(d.Handle); err != nil {
			t.Fatal(err)
		}
	}
	// Kill some after attaching, so dead-but-attached is covered.
	for i := 0; i < 8; i++ {
		l.Kill(devs[rng.Intn(len(devs))].Handle)
	}
	l.Kill(near[4].Handle)
	jam := geometry.Circle{Center: geometry.Point{X: 40, Y: 110}, Radius: 25}
	m.Jam(jam)
	o := newOracle(l, m, []geometry.Circle{jam})

	// drainAll empties every inbox in handle order; each transmission
	// reaches a device at most once, so the receivers come back in
	// delivery order.
	drainAll := func() map[deploy.Handle][]deploy.Handle {
		got := make(map[deploy.Handle][]deploy.Handle)
		for _, d := range devs {
			tr := m.trxAt(d.Handle)
			if tr == nil {
				continue
			}
			for {
				msg, ok := tr.TryRecv()
				if !ok {
					break
				}
				got[msg.From] = append(got[msg.From], d.Handle)
			}
		}
		return got
	}

	send := func(kind string, from deploy.Handle, to nodeid.ID) {
		t.Helper()
		payload := []byte(kind)
		delivered, err := m.transmit(from, to, payload)
		sender := l.Device(from)
		if m.trxAt(from) == nil || !sender.Alive {
			if err == nil {
				t.Fatalf("%s from %d: send succeeded from an unattached/dead device", kind, from)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s from %d: %v", kind, from, err)
		}
		want := o.transmit(from, to, len(payload))
		if delivered != len(want) {
			t.Fatalf("%s from %d to %v: delivered %d, oracle says %d", kind, from, to, delivered, len(want))
		}
		if got := drainAll()[from]; !slices.Equal(got, want) {
			t.Fatalf("%s from %d to %v: inboxes got %v, oracle %v", kind, from, to, got, want)
		}
		if got := m.Counters(); got != o.count {
			t.Fatalf("%s from %d to %v: counters %+v, oracle %+v", kind, from, to, got, o.count)
		}
	}

	for _, d := range devs {
		send("broadcast", d.Handle, nodeid.None)
	}
	// Unicasts to replicated identities: every alive in-range device
	// claiming the ID — original or clone — must hear it.
	for i := 0; i < 6; i++ {
		for _, src := range devs[10:14] {
			send("unicast", src.Handle, devs[i].Node)
		}
	}
	// Every device unicasts to its neighbors' IDs and to its own: a
	// replica addressing its own ID reaches the other devices claiming it.
	for _, src := range devs {
		send("self", src.Handle, src.Node)
		for _, to := range []nodeid.ID{devs[0].Node, devs[1].Node, devs[rng.Intn(80)].Node} {
			send("unicast", src.Handle, to)
		}
	}
	if c := m.Counters(); c.LostRandom == 0 || c.Delivered == 0 {
		t.Fatalf("loss process not exercised: %+v", c)
	}
}

// TestLossDeterministicPerSeed pins the determinism the sorted iteration
// order bought: with LossProb set, two media built over identical layouts
// with the same seed drop exactly the same deliveries, broadcast and
// unicast alike — replicas included. (Pre-grid, the receiver loop followed
// Go map order, so the loss RNG consumption — and hence the delivery
// pattern — varied run to run.)
func TestLossDeterministicPerSeed(t *testing.T) {
	build := func() (*deploy.Layout, []*deploy.Device) {
		rng := rand.New(rand.NewSource(3))
		l := deploy.NewLayout(geometry.NewField(100, 100))
		var devs []*deploy.Device
		for i := 0; i < 60; i++ {
			devs = append(devs, l.Deploy(geometry.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, 0))
		}
		for i := 0; i < 5; i++ {
			d, err := l.DeployReplica(devs[i].Node, geometry.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, 1)
			if err != nil {
				t.Fatal(err)
			}
			devs = append(devs, d)
		}
		return l, devs
	}

	run := func() string {
		l, devs := build()
		m := NewMedium(l, Config{Range: 40, LossProb: 0.3, Seed: 99, InboxSize: 256})
		for _, d := range devs {
			if _, err := m.Attach(d.Handle); err != nil {
				t.Fatal(err)
			}
		}
		var log strings.Builder
		for _, d := range devs {
			n, err := m.Broadcast(d.Handle, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&log, "%d:%d;", d.Handle, n)
		}
		for i, d := range devs {
			for _, to := range []nodeid.ID{devs[(i+1)%len(devs)].Node, devs[i%5].Node, d.Node} {
				n, err := m.Unicast(d.Handle, to, []byte("y"))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&log, "%d>%v:%d;", d.Handle, to, n)
			}
		}
		fmt.Fprintf(&log, "%+v", m.Counters())
		return log.String()
	}

	if a, b := run(), run(); a != b {
		t.Fatalf("delivery pattern differs across identical seeded runs:\n%s\nvs\n%s", a, b)
	}
}
