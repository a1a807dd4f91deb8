package globaldb

import (
	"fmt"
	"testing"
	"time"
)

// benchStore pre-populates a store with the fleet steady state: nClients
// registered clients spread over nASes ASes, each holding perClient reports.
func benchStore(tb testing.TB, s *store, nClients, nASes, perClient int) {
	base := time.Unix(1_000_000_000, 0)
	for c := 0; c < nClients; c++ {
		uuid := fmt.Sprintf("client-%05d", c)
		if err := s.addUser(uuid); err != nil {
			tb.Fatalf("bench setup: %v", err)
		}
		asn := 100 + c%nASes
		batch := make([]Report, perClient)
		for r := range batch {
			batch[r] = Report{
				URL:    fmt.Sprintf("site%d-%d.example/", c%50, r),
				ASN:    asn,
				Stages: []WireStage{{Type: 1, Detail: "nxdomain"}},
				Tm:     base,
			}
		}
		if _, err := s.ingest(uuid, base, batch); err != nil {
			tb.Fatalf("bench setup: %v", err)
		}
	}
}

// Sync-round budget, checked by TestEmitBenchGlobalDB. The allocation
// count is deterministic; the time budget is the last recorded
// single-mutex baseline (~870 µs per round on a 2-core Xeon) divided by
// the 5x margin the sharded state was built to clear.
const (
	syncRoundAllocsBudget = 30
	syncRoundNsBudget     = 170_000
)

// BenchmarkFleetSyncRound measures the server-side cost of the client sync
// loop — the exact store traffic core.Client.syncRound generates — against
// a steady state of 2000 clients × 5 reports across 16 ASes, on the
// in-memory store the fleet runs. Every round fetches the client's own-AS
// blocked list; a post precedes the fetch on every 7th round, matching the
// steady-state mix where most intervals have no new blocked URLs to report
// (§4.3.1: blocking events are rare relative to sync intervals) and
// re-posts keep the store size stationary. Only a written AS
// re-aggregates — once, on the first fetch after the write — and every
// other fetch is served the cached body.
func BenchmarkFleetSyncRound(b *testing.B) {
	const nClients, nASes, perClient = 2000, 16, 5
	s, err := newStore(StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchStore(b, s, nClients, nASes, perClient)
	base := time.Unix(2_000_000_000, 0)
	tm := time.Unix(1_000_000_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % nClients
		uuid := fmt.Sprintf("client-%05d", c)
		asn := 100 + c%nASes
		// 7 is coprime with the AS count so post traffic spreads over all
		// 16 ASes instead of aliasing onto a subset.
		if i%7 == 0 {
			if _, err := s.ingest(uuid, base.Add(time.Duration(i)*time.Second), []Report{{
				URL:    fmt.Sprintf("site%d-%d.example/", c%50, i%perClient),
				ASN:    asn,
				Stages: []WireStage{{Type: 1, Detail: "nxdomain"}},
				Tm:     tm,
			}}); err != nil {
				b.Fatal(err)
			}
		}
		if body := s.fetchResponse(asn, "").body; len(body) == 0 {
			b.Fatal("empty fetch body")
		}
	}
}

// BenchmarkIngest measures the pure report-ingest path (no fetches).
func BenchmarkIngest(b *testing.B) {
	const nClients = 2000
	s, err := newStore(StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchStore(b, s, nClients, 16, 1)
	base := time.Unix(2_000_000_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % nClients
		uuid := fmt.Sprintf("client-%05d", c)
		if _, err := s.ingest(uuid, base, []Report{{
			URL: fmt.Sprintf("fresh-%d.example/", i), ASN: 100 + c%16, Tm: base,
		}}); err != nil {
			b.Fatal(err)
		}
	}
}
