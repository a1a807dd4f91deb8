package netem

import (
	"io"
	"net"
	"time"

	"sync"

	"csaw/internal/vtime"
)

// Addr is a net.Addr for emulated endpoints.
type Addr struct {
	IP   string
	Port int
}

// Network implements net.Addr.
func (a Addr) Network() string { return "netem" }

// String implements net.Addr.
func (a Addr) String() string { return a.IP + ":" + itoa(a.Port) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// segment is a chunk of bytes in flight, deliverable at a real instant.
// buf[off:] is still unread; buf comes from segBuf and goes back through
// putSegBuf once the reader has drained it.
type segment struct {
	buf []byte
	off int
	due time.Time // real time at which the receiver may read it
}

// Segment buffers are pooled in three size classes. A segment is one
// Write, so the classes follow the writes the workloads make: request and
// response heads, typical bodies, and the largest pages. A Write above the
// largest class gets a buffer of its own.
var (
	segPool512 = sync.Pool{New: func() any { return new([512]byte) }}
	segPool4K  = sync.Pool{New: func() any { return new([4 << 10]byte) }}
	segPool32K = sync.Pool{New: func() any { return new([32 << 10]byte) }}
)

// segBuf returns a buffer of length n, pooled when n fits a size class.
func segBuf(n int) []byte {
	switch {
	case n <= 512:
		return segPool512.Get().(*[512]byte)[:n]
	case n <= 4<<10:
		return segPool4K.Get().(*[4 << 10]byte)[:n]
	case n <= 32<<10:
		return segPool32K.Get().(*[32 << 10]byte)[:n]
	}
	return make([]byte, n)
}

// putSegBuf recycles a buffer from segBuf; its capacity names the class.
// The caller must hold the only reference.
func putSegBuf(b []byte) {
	switch cap(b) {
	case 512:
		segPool512.Put((*[512]byte)(b[:512]))
	case 4 << 10:
		segPool4K.Put((*[4 << 10]byte)(b[:4<<10]))
	case 32 << 10:
		segPool32K.Put((*[32 << 10]byte)(b[:32<<10]))
	}
}

// pipe is one direction of an emulated connection: a FIFO of segments with
// propagation latency, serialization (bandwidth) delay, optional loss-induced
// retransmission delay, and a byte cap providing backpressure.
//
// Deadlines live in the clock's execution domain: real instants under a
// real-scaled clock (converted by Conn from the virtual timestamps callers
// set), virtual instants under a discrete-event clock (where Real() is 0,
// so segments deliver the moment they are written and only the deadlines
// still need a time domain). Event-mode deadline expiry is driven by a
// clock event, armed when a reader or writer parks with a deadline, that
// broadcasts the cond when virtual time crosses it.
type pipe struct {
	net   *Network
	clock *vtime.Clock
	lat   time.Duration // virtual one-way propagation latency

	mu      sync.Mutex
	cond    sync.Cond
	segs    []segment // segs[head:] are queued
	head    int
	segArr  [2]segment // segs' first backing array: most pipes carry a head and a body
	unread  int
	lastDue time.Time // real due time of last queued segment
	closed  bool      // EOF once drained
	reset   bool      // error immediately
	rdl     time.Time // read deadline (zero = none); see domain note above
	wdl     time.Time // write deadline
	rwake   wake      // event-mode expiry broadcast for rdl
	wwake   wake      // event-mode expiry broadcast for wdl
}

// wake is an event-mode deadline broadcast, armed for the deadline at.
type wake struct {
	at   time.Time
	stop func() bool // nil when disarmed
}

// disarm stops the broadcast if it is still pending.
func (w *wake) disarm() {
	if w.stop != nil {
		w.stop()
		w.stop = nil
	}
}

const defaultPipeCap = 1 << 18 // 256 KiB in flight

func (p *pipe) init(n *Network, lat time.Duration) {
	p.net, p.clock, p.lat = n, n.clock, lat
	p.cond.L = &p.mu
	p.segs = p.segArr[:0]
}

// waitUntil blocks on the pipe's cond until shortly before the real instant
// t (or a state change); callers re-check and spin the precise tail. Caller
// must hold p.mu. Real-scaled mode only.
func (p *pipe) waitUntil(t time.Time) {
	d := time.Until(t) - vtime.CoarseSleep
	if d < 0 {
		d = 0
	}
	// The timer must wake through lockedBroadcast: a bare cond.Broadcast
	// can fire in the gap between this caller's predicate check and its
	// park inside Wait, and a wakeup delivered into that gap is lost —
	// taking p.mu first makes the timer goroutine block until the waiter
	// is parked and guaranteed to hear it.
	stop := time.AfterFunc(d, p.lockedBroadcast)
	p.cond.Wait()
	stop.Stop()
}

// park blocks until the pipe's state changes or the deadline dl (zero =
// none) may have passed; callers re-check both. Caller must hold p.mu and
// must have found dl unexpired.
//
// In event mode nothing but a clock event can wake a waiter whose deadline
// passes, so park arms w for dl unless it is already armed for it: a conn
// whose reads and writes never wait costs the scheduler nothing. The
// already-armed case is safe even if the event has fired: the scheduler
// moves time to the deadline before firing, so the caller's expiry check
// would have seen it — unless the firing came after that check, and then
// its lockedBroadcast is still queued on p.mu and lands once Wait parks.
func (p *pipe) park(dl time.Time, w *wake) {
	switch {
	case dl.IsZero():
		p.cond.Wait()
	case !p.clock.EventDriven():
		p.waitUntil(dl)
	case w.stop != nil && w.at.Equal(dl):
		p.cond.Wait()
	default:
		w.disarm()
		d := dl.Sub(p.clock.Now())
		if d <= 0 {
			return // expired since the caller's check: let it re-check
		}
		w.at, w.stop = dl, p.clock.AfterFunc(d, p.lockedBroadcast)
		p.cond.Wait()
	}
}

// expired reports whether the deadline dl (zero = never) has passed in the
// clock's execution domain. Caller must hold p.mu.
func (p *pipe) expired(dl time.Time) bool {
	if dl.IsZero() {
		return false
	}
	if p.clock.EventDriven() {
		return !p.clock.Now().Before(dl)
	}
	return !time.Now().Before(dl)
}

func (p *pipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.reset {
			return 0, ErrReset
		}
		if p.closed {
			return 0, ErrClosed
		}
		if p.expired(p.wdl) {
			return 0, ErrTimeout
		}
		if p.unread < defaultPipeCap {
			break
		}
		p.park(p.wdl, &p.wwake)
	}
	// Compute delivery time: first byte pays propagation once; subsequent
	// segments are serialized behind the previous segment at link bandwidth.
	now := time.Now()
	lat := p.lat + p.net.jitter(p.lat)
	if p.net.lose() {
		lat += p.net.lossRTO
	}
	xfer := time.Duration(float64(len(b)) / p.net.bandwidth * float64(time.Second))
	due := now.Add(p.clock.Real(lat))
	if p.lastDue.After(due) {
		due = p.lastDue
	}
	due = due.Add(p.clock.Real(xfer))
	p.lastDue = due

	data := segBuf(len(b))
	copy(data, b)
	p.compactLocked()
	p.segs = append(p.segs, segment{buf: data, due: due})
	p.unread += len(data)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.reset {
			return 0, ErrReset
		}
		if p.expired(p.rdl) {
			return 0, ErrTimeout
		}
		if p.head < len(p.segs) {
			s := &p.segs[p.head]
			now := time.Now()
			// Under a discrete-event clock Real() is 0, so due never lands
			// in the future and this in-flight branch is unreachable: data
			// is deliverable the moment it is written.
			if now.Before(s.due) {
				// Data in flight: wait for delivery or deadline. Near-due
				// segments are spin-waited for sub-millisecond delivery
				// accuracy (see vtime.CoarseSleep).
				until := s.due
				if !p.rdl.IsZero() && p.rdl.Before(until) {
					until = p.rdl
				}
				if until.Sub(now) <= vtime.CoarseSleep {
					due := until
					p.mu.Unlock()
					vtime.SpinUntil(due)
					p.mu.Lock()
					continue
				}
				p.waitUntil(until)
				continue
			}
			n := copy(b, s.buf[s.off:])
			s.off += n
			p.unread -= n
			if s.off == len(s.buf) {
				p.popLocked()
			}
			p.cond.Broadcast() // wake writers blocked on backpressure
			return n, nil
		}
		if p.closed {
			return 0, io.EOF
		}
		p.park(p.rdl, &p.rwake)
	}
}

// popLocked recycles the drained head segment. Caller must hold p.mu.
func (p *pipe) popLocked() {
	putSegBuf(p.segs[p.head].buf)
	p.segs[p.head] = segment{}
	p.head++
	if p.head == len(p.segs) {
		p.segs, p.head = p.segs[:0], 0
	}
}

// compactLocked slides the queued segments to the front of segs when the
// drained prefix is at least half of a full slice, so a writer that stays
// ahead of the reader reuses the dead slots instead of growing segs for the
// life of the conn. Caller must hold p.mu.
func (p *pipe) compactLocked() {
	if len(p.segs) < cap(p.segs) || p.head*2 < len(p.segs) {
		return
	}
	n := copy(p.segs, p.segs[p.head:])
	clear(p.segs[n:])
	p.segs, p.head = p.segs[:n], 0
}

// close marks the pipe for EOF after the queued data drains.
func (p *pipe) close() {
	p.mu.Lock()
	p.closed = true
	p.stopWakesLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// doReset tears the pipe down: queued data is lost and both ends error.
func (p *pipe) doReset() {
	p.mu.Lock()
	p.reset = true
	for p.head < len(p.segs) {
		p.popLocked()
	}
	p.unread = 0
	p.stopWakesLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// lockedBroadcast is the event-mode deadline wake. It must take p.mu: a
// bare Broadcast can land between a waiter's deadline check and its
// cond.Wait (the check runs under p.mu, but the wake goroutine does not
// contend for it) and be lost, parking the waiter forever on a clock that
// may never advance again. Holding the lock serializes the wake against the
// check-then-wait window: either the waiter is already parked (Broadcast
// wakes it, and the scheduler advanced time before running this handler, so
// the re-check sees the expired deadline) or it has yet to check (and sees
// the expired deadline directly).
func (p *pipe) lockedBroadcast() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cond.Broadcast()
}

// stopWakesLocked disarms any event-mode deadline broadcasts so a closed
// conn's far-future deadlines don't linger in the scheduler's heap. A
// closed or reset pipe never parks again, so nothing re-arms them.
func (p *pipe) stopWakesLocked() {
	p.rwake.disarm()
	p.wwake.disarm()
}

// setDeadline sets *dl to t. A broadcast armed for the old deadline is
// stopped, and a party parked under it wakes to re-check and re-arm.
func (p *pipe) setDeadline(dl *time.Time, w *wake, t time.Time) {
	p.mu.Lock()
	*dl = t
	w.disarm()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Conn is an emulated, full-duplex, latency- and bandwidth-modelled
// connection implementing net.Conn. Deadlines passed to SetDeadline and
// friends are interpreted as *virtual* timestamps from the network's clock.
type Conn struct {
	rx, tx *pipe
	local  Addr
	remote Addr
	flow   Flow
	clock  *vtime.Clock
	once   sync.Once
}

// connPair builds two connected Conns. lat is the virtual one-way latency of
// the segment between them.
func connPair(n *Network, lat time.Duration, a, b Addr, flow Flow) (*Conn, *Conn) {
	d := new(duplex)
	d.ab.init(n, lat)
	d.ba.init(n, lat)
	d.a.rx, d.a.tx, d.a.local, d.a.remote, d.a.flow, d.a.clock = &d.ba, &d.ab, a, b, flow, n.clock
	d.b.rx, d.b.tx, d.b.local, d.b.remote, d.b.flow, d.b.clock = &d.ab, &d.ba, b, a, flow, n.clock
	return &d.a, &d.b
}

// duplex is one emulated connection in a single allocation: both
// directions and both ends.
type duplex struct {
	ab, ba pipe
	a, b   Conn
}

// Read implements net.Conn.
func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.rx.read(b)
	if err != nil && err != io.EOF {
		err = &OpError{Op: "read", Addr: c.remote.String(), Err: err}
	}
	return n, err
}

// Write implements net.Conn.
func (c *Conn) Write(b []byte) (int, error) {
	n, err := c.tx.write(b)
	if err != nil {
		err = &OpError{Op: "write", Addr: c.remote.String(), Err: err}
	}
	return n, err
}

// Close implements net.Conn: the peer sees EOF after draining queued data.
func (c *Conn) Close() error {
	c.shutdown()
	return nil
}

// shutdown releases both directions. Closing an in-process conn cannot
// fail — Close's error exists only to satisfy net.Conn — so internal
// teardown paths use this error-free form instead of discarding Close's
// result (see the errdrop analyzer).
func (c *Conn) shutdown() {
	c.once.Do(func() {
		c.tx.close()
		c.rx.close()
	})
}

// Reset tears the connection down abruptly: both ends observe ErrReset and
// queued data is discarded. This is the censor's (or server's) RST.
func (c *Conn) Reset() {
	c.tx.doReset()
	c.rx.doReset()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// Flow returns the connection's flow metadata (source, destination, and the
// AS the connection egressed through), visible to servers the way a real
// server sees the client address.
func (c *Conn) Flow() Flow { return c.flow }

// SetDeadline implements net.Conn; t is a virtual timestamp.
func (c *Conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn; t is a virtual timestamp.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if !t.IsZero() {
		t = c.clock.Deadline(t)
	}
	c.rx.setDeadline(&c.rx.rdl, &c.rx.rwake, t)
	return nil
}

// SetWriteDeadline implements net.Conn; t is a virtual timestamp.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if !t.IsZero() {
		t = c.clock.Deadline(t)
	}
	c.tx.setDeadline(&c.tx.wdl, &c.tx.wwake, t)
	return nil
}
