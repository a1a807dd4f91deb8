// Package replica implements asynchronous replication for the global DB
// (§5: blocking access to the global_DB is countered by moving it — here,
// by running several of it). A primary built by globaldb.NewServer with
// StoreOptions{Replicated: true} streams every mutation record through an
// in-memory feed, after its write-ahead log when it has a Dir; each
// Follower runs its own globaldb.Server on another emulated host and pulls
// framed WAL records over plain HTTP (GET /v1/repl), applying them in
// order. A plain follower's server can be in-memory; a promotable one needs
// a feed (and a Dir, to survive restarts) so it can serve the stream once
// it leads. Because the records are mutation requests and both sides apply
// them through the same store paths, a caught-up follower converges to the
// primary's exact state — including the validator tags behind conditional
// fetches, so a client failing over mid-sync keeps its delta chain.
//
// Replication is pull-based and carries the follower's acknowledgement for
// free: pulling from sequence N acks everything below N, and the primary's
// feed stats report per-follower lag without extra round trips.
//
// A follower also fronts the full client API (Handler): reads are served
// from its local store; writes (registration, reports) are forwarded to
// the primary, which remains the single writer. Forwarding means the
// primary's registration rate limiter sees the follower's IP as the
// source for forwarded registrations — fine for the emulated scenarios,
// where clients register before any failover, but a real deployment would
// propagate the original source.
package replica

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"csaw/internal/globaldb"
	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// defaultMaxBytes bounds one pull's payload.
const defaultMaxBytes = 1 << 20

// Peer names one other member of the replica set for election probes and
// leader reconciliation. Addr is the member's client-facing "ip:port".
type Peer struct {
	Name string
	Addr string
}

// Follower replicates a primary's WAL stream into a local server. With
// Promote set it is also one node of a self-healing replica set: it counts
// missed pulls, runs elections, can be promoted to leader, fences stale
// writers, and resyncs after demotion (see promote.go).
type Follower struct {
	// Name identifies the follower in the primary's lag stats.
	Name string
	// Server is the local store the stream is applied into (and, via
	// Handler, the read side served to clients).
	Server *globaldb.Server
	// PrimaryAddr/PrimaryHost locate the primary; Dial is the follower
	// host's dialer.
	PrimaryAddr string
	PrimaryHost string
	Dial        netem.DialFunc
	Clock       *vtime.Clock
	// Timeout bounds each pull (virtual); default 30s.
	Timeout time.Duration
	// MaxBytes bounds one pull's payload; default 1 MiB.
	MaxBytes int
	// Trace, when set, records one span per pull on the "repl" lane.
	Trace *trace.Tracer

	// Promote enables the promotion controller (Step): missed-pull
	// detection, elections, fencing, demotion and resync. Off by default —
	// plain pull replication behaves exactly as before.
	Promote bool
	// Self is this node's own client-facing "ip:port"; required with
	// Promote (it is what a minted term's leader hint points at).
	Self string
	// Peers lists the other replica-set members, the current primary
	// included, for election probes and reconciliation.
	Peers []Peer
	// MissedThreshold is how many consecutive failed pulls declare the
	// primary dead and trigger an election; default 3.
	MissedThreshold int

	mu      sync.Mutex
	offset  uint64
	applied int64
	lastErr error
	seq     uint64

	// Promotion state, all guarded by mu.
	role     string // globaldb.RoleLeader or "" / RoleFollower
	primary  string // current primary override; "" means PrimaryAddr
	missed   int    // consecutive failed pulls
	resync   bool   // a push-then-reset toward resyncTo is pending
	resyncTo string
	pushFrom uint64 // feed records below this are already held by the leader
}

func (f *Follower) timeout() time.Duration {
	if f.Timeout > 0 {
		return f.Timeout
	}
	return 30 * time.Second
}

// Offset returns the next sequence this follower will pull from (= records
// applied since attach).
func (f *Follower) Offset() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.offset
}

// SetOffset primes the pull offset, used when a restarted node recovered n
// records from its own WAL and should continue pulling from there.
func (f *Follower) SetOffset(n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offset = n
}

// RoleName returns the node's current role.
func (f *Follower) RoleName() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.role == "" {
		return globaldb.RoleFollower
	}
	return f.role
}

// SetRole sets the node's role; wiring marks the founding primary's node
// with globaldb.RoleLeader.
func (f *Follower) SetRole(role string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.role = role
}

// primaryAddr is the address the node currently pulls from and forwards to:
// the configured PrimaryAddr until a leader change repoints it.
func (f *Follower) primaryAddr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.primary != "" {
		return f.primary
	}
	return f.PrimaryAddr
}

func (f *Follower) repoint(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.primary = addr
}

// Err returns the most recent pull error, cleared by a successful pull.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

func (f *Follower) nextSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	return f.seq
}

// SyncOnce pulls one batch from the primary and applies it. caughtUp is
// true when the follower reached the head the primary reported in this
// pull's response.
func (f *Follower) SyncOnce(ctx context.Context) (applied int, caughtUp bool, err error) {
	if f.Trace != nil {
		sp := f.Trace.Start(f.Name, f.nextSeq(), globaldb.PathRepl)
		defer func() {
			sp.EventNum("repl", "applied", "", float64(applied))
			status := "ok"
			if err != nil {
				status = "error"
			}
			sp.Finish("replica", status, err)
		}()
	}
	f.mu.Lock()
	from := f.offset
	f.mu.Unlock()
	maxBytes := f.MaxBytes
	if maxBytes <= 0 {
		maxBytes = defaultMaxBytes
	}
	target := fmt.Sprintf("%s?from=%d&follower=%s&max=%d", globaldb.PathRepl, from, f.Name, maxBytes)
	req := httpx.NewRequest("GET", f.PrimaryHost, target)
	hc := &httpx.Client{Dial: f.Dial, Clock: f.Clock, Timeout: f.timeout()}
	resp, err := hc.Do(ctx, f.primaryAddr(), req)
	if err != nil {
		return 0, false, f.fail(fmt.Errorf("replica: pull: %w", err))
	}
	if resp.StatusCode == globaldb.StatusFenced {
		// The node we pull from is no longer the leader. Chase its hint so
		// the next pull lands on the current lineage.
		f.adoptHint(resp)
		return 0, false, f.fail(fmt.Errorf("replica: pull: primary fenced (term %s, leader %s)",
			resp.Header.Get(globaldb.TermHeader), resp.Header.Get(globaldb.LeaderHeader)))
	}
	if resp.StatusCode != 200 {
		return 0, false, f.fail(fmt.Errorf("replica: pull: %d %s", resp.StatusCode, resp.Body))
	}
	next, err := strconv.ParseUint(resp.Header.Get(globaldb.ReplNextHeader), 10, 64)
	if err != nil {
		return 0, false, f.fail(fmt.Errorf("replica: bad next header: %w", err))
	}
	head, err := strconv.ParseUint(resp.Header.Get(globaldb.ReplHeadHeader), 10, 64)
	if err != nil {
		return 0, false, f.fail(fmt.Errorf("replica: bad head header: %w", err))
	}
	if f.Promote {
		if diverged := f.checkDivergence(resp, from, head); diverged != nil {
			return 0, false, f.fail(diverged)
		}
	}
	if _, err := storage.Replay(bytes.NewReader(resp.Body), func(rec *storage.Record) error {
		if err := f.Server.Absorb(rec); err != nil {
			return err
		}
		applied++
		return nil
	}); err != nil {
		// A truncated or corrupt batch would desync the offset from what was
		// actually applied; refuse it rather than guessing.
		return applied, false, f.fail(fmt.Errorf("replica: batch at %d: %w", from+uint64(applied), err))
	}
	if uint64(applied) != next-from {
		return applied, false, f.fail(fmt.Errorf("replica: applied %d records, primary advanced %d", applied, next-from))
	}
	f.mu.Lock()
	f.offset = next
	f.applied += int64(applied)
	f.lastErr = nil
	f.mu.Unlock()
	return applied, next >= head, nil
}

func (f *Follower) fail(err error) error {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
	return err
}

// Handler fronts the full client API on the node. Replica-set control
// endpoints (status, demote) are answered here for every role. A leader
// serves everything from its local server. A follower serves GETs (list
// fetches, stats) from the local replica and forwards writes to the
// primary over the follower's dialer, chasing one fencing hint so a write
// that lands mid-promotion still reaches the new leader.
func (f *Follower) Handler() httpx.Handler {
	local := f.Server.Handler()
	return httpx.HandlerFunc(func(req *httpx.Request, flow netem.Flow) *httpx.Response {
		path := req.Target
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i]
		}
		switch {
		case req.Method == "GET" && path == globaldb.PathReplStatus:
			return jsonResponse(200, f.Status())
		case req.Method == "POST" && path == globaldb.PathReplDemote:
			return f.handleDemote(req)
		}
		if req.Method == "GET" || f.RoleName() == globaldb.RoleLeader {
			return local.ServeHTTP(req, flow)
		}
		return f.forward(req)
	})
}

// forward relays one write to the current primary. The incoming request's
// context bounds the upstream call: a client that hung up (or a closing
// server) cancels the forward instead of leaving it to run out its own
// timeout against an unreachable primary.
func (f *Follower) forward(req *httpx.Request) *httpx.Response {
	fwd := httpx.NewRequest(req.Method, f.PrimaryHost, req.Target)
	for k, vs := range req.Header {
		for _, v := range vs {
			fwd.Header.Add(k, v)
		}
	}
	fwd.Body = req.Body
	hc := &httpx.Client{Dial: f.Dial, Clock: f.Clock, Timeout: f.timeout()}
	resp, err := hc.Do(req.Context(), f.primaryAddr(), fwd)
	if err != nil {
		return httpx.NewResponse(502, []byte("primary unreachable: "+err.Error()))
	}
	if resp.StatusCode == globaldb.StatusFenced {
		if hint := resp.Header.Get(globaldb.LeaderHeader); hint != "" && hint != f.primaryAddr() {
			f.adoptHint(resp)
			if retried, err := hc.Do(req.Context(), hint, fwd); err == nil {
				return retried
			}
		}
	}
	return resp
}

// Attach serves the client API (Handler) on host:port.
func (f *Follower) Attach(host *netem.Host, port int) error {
	l, err := host.Listen(port)
	if err != nil {
		return err
	}
	httpx.Serve(l, f.Handler())
	return nil
}
