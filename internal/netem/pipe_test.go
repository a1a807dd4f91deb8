package netem

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"csaw/internal/vtime"
)

// eventPair returns the two ends of one connection on a fresh
// discrete-event clock, with no latency and no other timers armed, so the
// clock's pending-timer count is exactly the pipes' armed deadline wakes.
func eventPair(t *testing.T) (*vtime.Clock, *Conn, *Conn) {
	t.Helper()
	clock := vtime.NewEventDriven()
	n := New(clock, WithSeed(1), WithJitter(0))
	a, b := connPair(n, 0, Addr{IP: "10.0.0.1", Port: 1000}, Addr{IP: "10.0.0.2", Port: 80}, Flow{})
	return clock, a, b
}

// pattern fills b with bytes derived from seed, so every write in a stream
// carries distinguishable content.
func pattern(b []byte, seed int) []byte {
	for i := range b {
		b[i] = byte(seed*31 + i*7)
	}
	return b
}

// TestSegmentsDoNotAlias: segment buffers are recycled across writes and
// connections, yet no reader ever sees bytes a writer changed after its
// Write returned, or bytes of another segment. The writes cover every size
// class plus an unpooled one, and the reads straddle segment boundaries.
func TestSegmentsDoNotAlias(t *testing.T) {
	sizes := []int{1, 100, 512, 513, 3000, 4096, 4097, 20000, 32 << 10, 40000}
	for round := 0; round < 3; round++ {
		_, a, b := eventPair(t)
		var want bytes.Buffer
		buf := make([]byte, 40000)
		for i, n := range sizes {
			msg := pattern(buf[:n], round*100+i)
			want.Write(msg)
			if _, err := a.Write(msg); err != nil {
				t.Fatal(err)
			}
			// The writer reuses its buffer at once; the queued segment
			// must not change.
			pattern(buf[:n], -1)
		}
		got := make([]byte, 0, want.Len())
		chunk := make([]byte, 333)
		for len(got) < want.Len() {
			n, err := b.Read(chunk)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, chunk[:n]...)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: stream corrupted", round)
		}
		a.shutdown()
		if n, err := b.Read(chunk); n != 0 || err != io.EOF {
			t.Fatalf("round %d: after drain read = %d, %v, want EOF", round, n, err)
		}
	}
}

// TestResetMidStreamRecycles: a reset drops the queued segments, both ends
// see ErrReset, and a new connection reusing the recycled buffers carries
// its own bytes only.
func TestResetMidStreamRecycles(t *testing.T) {
	_, a, b := eventPair(t)
	for i := 0; i < 4; i++ {
		if _, err := a.Write(pattern(make([]byte, 600), i)); err != nil {
			t.Fatal(err)
		}
	}
	head := make([]byte, 700) // one segment and part of the next
	if _, err := io.ReadFull(b, head); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if _, err := b.Read(head); !IsReset(err) {
		t.Fatalf("read after reset = %v, want reset", err)
	}
	if _, err := a.Write([]byte("x")); !IsReset(err) {
		t.Fatalf("write after reset = %v, want reset", err)
	}

	_, c, d := eventPair(t)
	want := pattern(make([]byte, 600), 99)
	if _, err := c.Write(want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 600)
	if _, err := io.ReadFull(d, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("new connection read bytes of the reset one")
	}
}

// TestConcurrentReaderWriter streams through one pipe from two goroutines
// (run it under -race): the writer overwrites its buffer after every
// Write and outruns the 256 KiB cap, the reader reads with varying sizes.
func TestConcurrentReaderWriter(t *testing.T) {
	_, a, b := eventPair(t)
	const writes = 200
	sizes := []int{7, 512, 600, 4096, 5000, 33000}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.shutdown()
		buf := make([]byte, 33000)
		for i := 0; i < writes; i++ {
			if _, err := a.Write(pattern(buf[:sizes[i%len(sizes)]], i)); err != nil {
				t.Error(err)
				return
			}
			pattern(buf, -i)
		}
	}()
	var want bytes.Buffer
	for i := 0; i < writes; i++ {
		want.Write(pattern(make([]byte, sizes[i%len(sizes)]), i))
	}
	got, err := io.ReadAll(&sizedReader{c: b, sizes: []int{1, 100, 1000, 9000}})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), want.Len())
	}
}

// TestSegmentQueueBounded keeps a writer ahead of the reader for many
// times the 256 KiB cap, with reads that take each segment in two pieces,
// so the queue never drains; the segment slice must stay bounded by what
// is in flight rather than grow with every Write.
func TestSegmentQueueBounded(t *testing.T) {
	_, a, b := eventPair(t)
	const size, inFlight = 1000, 200
	writes := 20 * defaultPipeCap / size
	buf := make([]byte, size)
	got := make([]byte, size)
	for i := 0; i < inFlight; i++ {
		if _, err := a.Write(pattern(buf, i)); err != nil {
			t.Fatal(err)
		}
	}
	p := b.rx
	for i := 0; i < writes; i++ {
		if _, err := a.Write(pattern(buf, inFlight+i)); err != nil {
			t.Fatal(err)
		}
		for _, part := range [][]byte{got[:700], got[700:]} {
			if _, err := io.ReadFull(b, part); err != nil {
				t.Fatal(err)
			}
		}
		if want := pattern(buf, i); !bytes.Equal(got, want) {
			t.Fatalf("segment %d corrupted", i)
		}
		if n := len(p.segs); n > 4*inFlight {
			t.Fatalf("after %d writes the segment queue holds %d slots for %d in flight", inFlight+i+1, n, inFlight)
		}
	}
}

// sizedReader reads from c in a rotating series of buffer sizes.
type sizedReader struct {
	c     *Conn
	sizes []int
	i     int
}

func (r *sizedReader) Read(p []byte) (int, error) {
	n := min(len(p), r.sizes[r.i%len(r.sizes)])
	r.i++
	return r.c.Read(p[:n])
}

// waitArmed waits, in real time, until the clock holds want pending
// timers: the observable sign that a reader or writer has parked.
func waitArmed(t *testing.T, clock *vtime.Clock, want int) {
	t.Helper()
	//lint:allow-realtime watchdog for a wall-clock hang; virtual time cannot bound a parking bug
	deadline := time.Now().Add(10 * time.Second)
	for clock.PendingTimers() != want {
		//lint:allow-realtime see above
		if time.Now().After(deadline) {
			t.Fatalf("pending timers = %d, want %d", clock.PendingTimers(), want)
		}
		runtime.Gosched()
	}
}

// result is one Read or Write outcome.
type result struct {
	n   int
	err error
}

// TestDeadlinesArmOnlyWhenParked: setting deadlines arms nothing; a
// reader that parks arms one wake and times out when virtual time passes
// its deadline.
func TestDeadlinesArmOnlyWhenParked(t *testing.T) {
	clock, a, _ := eventPair(t)
	if err := a.SetDeadline(clock.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := clock.PendingTimers(); n != 0 {
		t.Fatalf("SetDeadline armed %d timers before anyone waited", n)
	}
	done := make(chan result, 1)
	go func() {
		n, err := a.Read(make([]byte, 1))
		done <- result{n, err}
	}()
	waitArmed(t, clock, 1)
	clock.Advance(2 * time.Second)
	if r := <-done; !IsTimeout(r.err) {
		t.Fatalf("parked read past its deadline = %v, want timeout", r.err)
	}
}

// TestDeadlineMovedWhileParked: moving the deadline of a parked reader
// disarms the old wake and re-arms for the new deadline, which then fires.
func TestDeadlineMovedWhileParked(t *testing.T) {
	clock, a, _ := eventPair(t)
	start := clock.Now()
	if err := a.SetReadDeadline(start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	done := make(chan result, 1)
	go func() {
		n, err := a.Read(make([]byte, 1))
		done <- result{n, err}
	}()
	waitArmed(t, clock, 1)
	if err := a.SetReadDeadline(start.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// Wait for the re-park to arm the new deadline, not the old one.
	//lint:allow-realtime watchdog for a wall-clock hang
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.rx.mu.Lock()
		armed := a.rx.rwake.stop != nil && a.rx.rwake.at.Equal(start.Add(time.Second))
		a.rx.mu.Unlock()
		if armed {
			break
		}
		//lint:allow-realtime see above
		if time.Now().After(deadline) {
			t.Fatal("parked reader never re-armed for its moved deadline")
		}
		runtime.Gosched()
	}
	if n := clock.PendingTimers(); n != 1 {
		t.Fatalf("pending timers = %d, want only the moved deadline's", n)
	}
	clock.Advance(2 * time.Second)
	if r := <-done; !IsTimeout(r.err) {
		t.Fatalf("read past the moved deadline = %v, want timeout", r.err)
	}
}

// TestBlockedWriterTimesOut: a writer parked on the 256 KiB in-flight cap
// arms its write deadline and times out.
func TestBlockedWriterTimesOut(t *testing.T) {
	clock, a, _ := eventPair(t)
	if _, err := a.Write(make([]byte, defaultPipeCap)); err != nil {
		t.Fatal(err)
	}
	if err := a.SetWriteDeadline(clock.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	done := make(chan result, 1)
	go func() {
		n, err := a.Write([]byte("more"))
		done <- result{n, err}
	}()
	waitArmed(t, clock, 1)
	clock.Advance(2 * time.Second)
	if r := <-done; !IsTimeout(r.err) {
		t.Fatalf("write blocked past its deadline = %v, want timeout", r.err)
	}
}

// TestCloseLeavesNoWake: closing a conn whose reader parked under a
// deadline wakes the reader and leaves no wake in the scheduler.
func TestCloseLeavesNoWake(t *testing.T) {
	clock, a, _ := eventPair(t)
	if err := a.SetDeadline(clock.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	done := make(chan result, 1)
	go func() {
		n, err := a.Read(make([]byte, 1))
		done <- result{n, err}
	}()
	waitArmed(t, clock, 1)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if r := <-done; !errors.Is(r.err, io.EOF) {
		t.Fatalf("read on closed conn = %v, want EOF", r.err)
	}
	if n := clock.PendingTimers(); n != 0 {
		t.Fatalf("%d wakes still armed after Close", n)
	}
}
