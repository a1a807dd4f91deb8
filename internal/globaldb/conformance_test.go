package globaldb

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// Store conformance suite: every store configuration — in memory (the
// reference), write-ahead logged with frequent compaction, feed-only, and
// logged plus feed — must expose identical ingest/dedup/revoke, aggregation
// and conditional-fetch semantics.

// utc is the workload epoch; UTC so serialized instants survive export and
// restore byte-identically regardless of the host zone.
var utc = time.Unix(1_000_000_000, 0).UTC()

type storeFactory struct {
	name string
	mk   func(t *testing.T) *store
}

func storeFactories() []storeFactory {
	return []storeFactory{
		{"sharded", func(t *testing.T) *store { return openStore(t, StoreOptions{}) }},
		{"wal", func(t *testing.T) *store {
			return openStore(t, StoreOptions{Dir: t.TempDir(), SnapshotEvery: 8})
		}},
		{"feed-only", func(t *testing.T) *store { return openStore(t, StoreOptions{Replicated: true}) }},
		{"wal+feed", func(t *testing.T) *store {
			return openStore(t, StoreOptions{Dir: t.TempDir(), SnapshotEvery: 8, Replicated: true})
		}},
	}
}

// openStore opens a store the test closes on cleanup.
func openStore(t *testing.T, o StoreOptions) *store {
	t.Helper()
	s, err := newStore(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// mustAddUser registers uuid, failing the test if the store rejects it.
func mustAddUser(t *testing.T, s *store, uuid string) {
	t.Helper()
	if err := s.addUser(uuid); err != nil {
		t.Fatalf("addUser %q: %v", uuid, err)
	}
}

// mustRevoke revokes uuid, failing the test if the store rejects it.
func mustRevoke(t *testing.T, s *store, uuid string) {
	t.Helper()
	if err := s.revoke(uuid); err != nil {
		t.Fatalf("revoke %q: %v", uuid, err)
	}
}

// conformanceWorkload drives one scripted history through a store and
// returns every observable: ingest results, aggregations, full fetch
// bodies, and stats.
func conformanceWorkload(t *testing.T, s *store) string {
	t.Helper()
	var out bytes.Buffer
	obs := func(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

	mustAddUser(t, s, "alice")
	mustAddUser(t, s, "bob")
	mustAddUser(t, s, "alice") // idempotent re-register

	// Unknown and revoked users are rejected.
	if n, err := s.ingest("nobody", utc, []Report{{URL: "x.example/", ASN: 100, Tm: utc}}); err == nil {
		t.Fatalf("unknown uuid accepted %d reports", n)
	}

	stages := []WireStage{{Type: 1, Detail: "nxdomain"}}
	batch := []Report{
		{URL: "a.example/", ASN: 100, Stages: stages, Tm: utc},
		{URL: "b.example/", ASN: 100, Stages: stages, Tm: utc},
		{URL: "", ASN: 100, Tm: utc}, // invalid: skipped
		{URL: "c.example/", Tm: utc}, // invalid: ASN 0
	}
	n, err := s.ingest("alice", utc, batch)
	obs("alice batch1: %d %v", n, err)

	// Re-post after a lost ack: the exact same batch again. Accepted counts
	// repeat (the server cannot tell a retry from a refresh) but the
	// dedup-aware updates counter must not move — pinned via stats below.
	n, err = s.ingest("alice", utc.Add(time.Minute), batch)
	obs("alice repost: %d %v", n, err)

	n, err = s.ingest("bob", utc.Add(2*time.Minute), []Report{
		{URL: "a.example/", ASN: 100, Stages: []WireStage{{Type: 4, Detail: "rst"}}, Tm: utc},
		{URL: "d.example/", ASN: 200, Stages: nil, Tm: utc},
		{URL: "e.example/", ASN: 200, Stages: []WireStage{}, Tm: utc},
	})
	obs("bob batch: %d %v", n, err)

	for _, asn := range []int{100, 200, 300} {
		obs("blocked %d: %+v", asn, s.blockedForAS(asn))
		obs("body %d: %s", asn, s.fetchResponse(asn, "").body)
	}

	mustRevoke(t, s, "bob")
	n, err = s.ingest("bob", utc.Add(3*time.Minute), []Report{{URL: "f.example/", ASN: 100, Tm: utc}})
	obs("bob after revoke: %d %v", n, err)
	for _, asn := range []int{100, 200} {
		obs("blocked post-revoke %d: %+v", asn, s.blockedForAS(asn))
		obs("body post-revoke %d: %s", asn, s.fetchResponse(asn, "").body)
	}

	st := s.stats()
	obs("stats: %+v", st)
	return out.String()
}

func TestStoreConformance(t *testing.T) {
	var want string
	for _, f := range storeFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			got := conformanceWorkload(t, f.mk(t))
			if want == "" {
				want = got
				return
			}
			if got != want {
				t.Fatalf("store %q diverges from reference:\n--- got ---\n%s--- want ---\n%s", f.name, got, want)
			}
		})
	}
}

// TestConformanceConditionalContract pins the conditional-fetch contract per
// configuration: the store answers its own current tag with 304 and never
// serves a body under a foreign tag it happens to match — a stale tag (left
// over from another node before a failover) must get the full body or a
// delta, never a spurious 304 that would freeze the client's list.
func TestConformanceConditionalContract(t *testing.T) {
	for _, f := range storeFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			s := f.mk(t)
			mustAddUser(t, s, "u")
			if _, err := s.ingest("u", utc, []Report{{URL: "a.example/", ASN: 100, Tm: utc}}); err != nil {
				t.Fatal(err)
			}
			first := s.fetchResponse(100, "")
			if first.notModified || first.delta || len(first.body) == 0 {
				t.Fatalf("unconditional fetch: %+v", first)
			}
			// A stale tag from some other backend must never 304. "9.9" is a
			// plausible sharded tag no fresh store has reached.
			stale := s.fetchResponse(100, "9.9")
			if stale.notModified {
				t.Fatalf("stale foreign tag %q answered 304", "9.9")
			}
			if !bytes.Equal(stale.body, first.body) && !stale.delta {
				t.Fatalf("stale tag served neither full body nor delta")
			}
			hit := s.fetchResponse(100, first.tag)
			if !hit.notModified || hit.body != nil || hit.tag != first.tag {
				t.Fatalf("current tag not answered 304: %+v", hit)
			}
		})
	}
}

// TestConformanceRepostDedup pins the lost-ack retry path on every
// configuration: re-posting an identical batch must not inflate the updates
// counter.
func TestConformanceRepostDedup(t *testing.T) {
	for _, f := range storeFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			s := f.mk(t)
			mustAddUser(t, s, "u")
			batch := []Report{
				{URL: "a.example/", ASN: 100, Tm: utc},
				{URL: "b.example/", ASN: 200, Tm: utc},
			}
			for i := 0; i < 3; i++ {
				if n, err := s.ingest("u", utc.Add(time.Duration(i)*time.Minute), batch); n != 2 || err != nil {
					t.Fatalf("post %d: %d %v", i, n, err)
				}
			}
			if st := s.stats(); st.Updates != 2 {
				t.Fatalf("updates after 3 identical posts = %d, want 2", st.Updates)
			}
		})
	}
}
