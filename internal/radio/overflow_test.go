package radio

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"snd/internal/deploy"
	"snd/internal/geometry"
)

// TestOverflowAccountingConcurrentSenders hammers one never-draining
// receiver from many goroutines and checks the medium's bookkeeping is
// exact: with a single in-range recipient every send is either delivered
// or dropped on the full inbox, never both, never neither — even when
// sends race. Run under -race this also proves the counter updates are
// properly serialized.
func TestOverflowAccountingConcurrentSenders(t *testing.T) {
	t.Parallel()
	const (
		senders   = 8
		perSender = 50
		inboxSize = 16
	)

	layout := deploy.NewLayout(geometry.NewField(100, 100))
	center := geometry.Point{X: 50, Y: 50}
	receiver := layout.Deploy(center, 0)
	medium := NewMedium(layout, Config{Range: 50, InboxSize: inboxSize})
	if _, err := medium.Attach(receiver.Handle); err != nil {
		t.Fatal(err)
	}

	handles := make([]deploy.Handle, senders)
	for i := range handles {
		d := layout.Deploy(center, 0)
		if _, err := medium.Attach(d.Handle); err != nil {
			t.Fatal(err)
		}
		handles[i] = d.Handle
	}

	// Unicast to the receiver's logical ID: the senders all claim other
	// IDs, so the receiver is the only possible recipient and its inbox
	// is never drained.
	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func(h deploy.Handle) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if _, err := medium.Unicast(h, receiver.Node, []byte{0xab}); err != nil {
					t.Error(err)
					return
				}
			}
		}(h)
	}
	wg.Wait()

	const total = senders * perSender
	c := medium.Counters()
	if c.Sent != total {
		t.Errorf("Sent = %d, want %d", c.Sent, total)
	}
	if c.Delivered != inboxSize {
		t.Errorf("Delivered = %d, want exactly the inbox capacity %d", c.Delivered, inboxSize)
	}
	if c.LostOverflow != total-inboxSize {
		t.Errorf("LostOverflow = %d, want %d", c.LostOverflow, total-inboxSize)
	}
	if c.Delivered+c.LostOverflow != c.Sent {
		t.Errorf("delivered %d + overflow %d != sent %d", c.Delivered, c.LostOverflow, c.Sent)
	}
	if c.LostRandom != 0 || c.LostJammed != 0 {
		t.Errorf("unexpected losses: random %d, jammed %d", c.LostRandom, c.LostJammed)
	}

	// The queued frames are really there and stop at capacity.
	trx, err := medium.Attach(receiver.Handle)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(trx.Drain()); got != inboxSize {
		t.Errorf("drained %d frames, want %d", got, inboxSize)
	}
}

// TestAttachDoesNotPreallocateInbox: the inbox grows on demand, so what
// Attach allocates does not depend on InboxSize. (A pre-sized queue of
// 8192 frames would cost each of these devices over 300 KB.)
func TestAttachDoesNotPreallocateInbox(t *testing.T) {
	layout := deploy.NewLayout(geometry.NewField(100, 100))
	var handles []deploy.Handle
	for i := 0; i < 50; i++ {
		handles = append(handles, layout.Deploy(geometry.Point{X: float64(2 * i), Y: 50}, 0).Handle)
	}
	attachBytes := func(inboxSize int) uint64 {
		medium := NewMedium(layout, Config{Range: 10, InboxSize: inboxSize})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, h := range handles {
			if _, err := medium.Attach(h); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := attachBytes(1), attachBytes(8192)
	if large > small+256<<10 {
		t.Errorf("attaching %d devices allocated %d B at InboxSize 8192 vs %d B at InboxSize 1",
			len(handles), large, small)
	}
}

// TestInboxConcurrentConsumer drives one inbox from several senders while
// a goroutine-per-node consumer waits on Ready and drains: every frame
// the medium reports delivered is received exactly once, each sender's
// frames in send order, and detaching the transceiver ends the consumer.
func TestInboxConcurrentConsumer(t *testing.T) {
	const (
		senders   = 4
		perSender = 250 // payloads carry the send index in one byte
	)
	layout := deploy.NewLayout(geometry.NewField(100, 100))
	center := geometry.Point{X: 50, Y: 50}
	receiver := layout.Deploy(center, 0)
	medium := NewMedium(layout, Config{Range: 50, InboxSize: 8})
	trx, err := medium.Attach(receiver.Handle)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]deploy.Handle, senders)
	for i := range handles {
		d := layout.Deploy(center, 0)
		if _, err := medium.Attach(d.Handle); err != nil {
			t.Fatal(err)
		}
		handles[i] = d.Handle
	}

	received := make(map[deploy.Handle][]byte)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for range trx.Ready() {
			for {
				msg, ok := trx.TryRecv()
				if !ok {
					break
				}
				received[msg.From] = append(received[msg.From], msg.Payload[0])
			}
		}
		// Ready closed: frames queued before the detach stay receivable.
		for {
			msg, ok := trx.TryRecv()
			if !ok {
				return
			}
			received[msg.From] = append(received[msg.From], msg.Payload[0])
		}
	}()

	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func(h deploy.Handle) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if _, err := medium.Unicast(h, receiver.Node, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	medium.Detach(receiver.Handle)
	select {
	case <-consumed:
	case <-time.After(10 * time.Second):
		t.Fatal("consumer still running after detach")
	}

	total := 0
	for _, h := range handles {
		got := received[h]
		total += len(got)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("sender %d: frames out of order: %v", h, got)
			}
		}
	}
	c := medium.Counters()
	if total != c.Delivered {
		t.Errorf("consumer received %d frames, medium delivered %d", total, c.Delivered)
	}
	if c.Delivered+c.LostOverflow != senders*perSender {
		t.Errorf("delivered %d + overflow %d != sent %d", c.Delivered, c.LostOverflow, senders*perSender)
	}
}
