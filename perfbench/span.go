package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/netem"
)

// recorder keeps the traced phase's spans in memory: one per public call
// the benchmark makes into the repo, with the span that caused it. A nil
// recorder records nothing and wraps nothing, which is how untraced
// repetitions run.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	dials atomic.Int64
	wire  atomic.Int64 // bytes read and written on wrapped connections

	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

type spanKey struct{}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span named name under ctx's span and returns the context
// carrying it plus the function that closes it.
func (r *recorder) begin(ctx context.Context, name string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	id := r.next.Add(1)
	start := time.Since(r.t0).Seconds()
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := time.Since(r.t0).Seconds()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		r.mu.Unlock()
	}
}

// dialer wraps a DialFunc the benchmark hands to the repo: each dial is a
// "netem.dial" span, and the connection counts the bytes crossing it.
func (r *recorder) dialer(dial netem.DialFunc) netem.DialFunc {
	if r == nil {
		return dial
	}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		_, end := r.begin(ctx, "netem.dial")
		c, err := dial(ctx, addr)
		end()
		r.dials.Add(1)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, n: &r.wire}, nil
	}
}

// lookup wraps a transport's resolver in "dnsx.lookup" spans.
func (r *recorder) lookup(f func(context.Context, string) (string, error)) func(context.Context, string) (string, error) {
	if r == nil || f == nil {
		return f
	}
	return func(ctx context.Context, host string) (string, error) {
		ctx, end := r.begin(ctx, "dnsx.lookup")
		defer end()
		return f(ctx, host)
	}
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// writeSpans writes every traced repetition's spans as JSON lines to
// spans-<workload>.jsonl in the work directory.
func writeSpans(workload string, its []repetition) error {
	f, err := os.Create(filepath.Join(workDir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, it := range its {
		for _, s := range it.Spans {
			if err := enc.Encode(struct {
				Repetition int `json:"repetition"`
				span
			}{i, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
