package globaldb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

var t0 = time.Unix(1_000_000_000, 0)

func mkReports(rng *rand.Rand, n, ases int) []Report {
	out := make([]Report, n)
	for i := range out {
		out[i] = Report{
			URL:    fmt.Sprintf("site%d.example/", rng.Intn(40)),
			ASN:    100 + rng.Intn(ases),
			Stages: []WireStage{{Type: 1, Detail: "nxdomain"}},
			Tm:     t0,
		}
	}
	return out
}

// TestSnapshotCacheNoRebuildOnRepeatedReads is the satellite regression test:
// repeated BlockedForAS reads of an unchanged AS must serve the cached sorted
// snapshot, not re-aggregate and re-sort per call (the seed behavior).
func TestSnapshotCacheNoRebuildOnRepeatedReads(t *testing.T) {
	s := newShardedState()
	s.addUser("u1")
	if _, ok := s.ingest("u1", t0, []Report{
		{URL: "a.example/", ASN: 100, Tm: t0},
		{URL: "b.example/", ASN: 100, Tm: t0},
	}); !ok {
		t.Fatal("ingest rejected")
	}

	first := s.blockedForAS(100)
	if len(first) != 2 || s.rebuilds.Load() != 1 {
		t.Fatalf("first read: %d entries, %d rebuilds, want 2 entries from 1 rebuild",
			len(first), s.rebuilds.Load())
	}
	for i := 0; i < 50; i++ {
		if got := s.blockedForAS(100); len(got) != 2 {
			t.Fatalf("read %d: %d entries", i, len(got))
		}
		s.fetchResponse(100, "")
	}
	if n := s.rebuilds.Load(); n != 1 {
		t.Fatalf("unchanged AS rebuilt %d times across repeated reads, want 1", n)
	}

	// A write to the AS invalidates exactly once more.
	s.ingest("u1", t0.Add(time.Minute), []Report{{URL: "c.example/", ASN: 100, Tm: t0}})
	s.blockedForAS(100)
	s.blockedForAS(100)
	if n := s.rebuilds.Load(); n != 2 {
		t.Fatalf("rebuilds after one write = %d, want 2", n)
	}

	// Writes to a different AS leave this snapshot alone.
	s.ingest("u1", t0.Add(2*time.Minute), []Report{{URL: "c.example/", ASN: 200, Tm: t0}})
	// (new key changes u1's d, which DOES affect AS 100's votes — so that
	// must rebuild. Re-posting an existing AS-200 key afterwards must not.)
	s.blockedForAS(100)
	if n := s.rebuilds.Load(); n != 3 {
		t.Fatalf("rebuilds after cross-AS d change = %d, want 3", n)
	}
	s.ingest("u1", t0.Add(3*time.Minute), []Report{{URL: "c.example/", ASN: 200, Tm: t0}})
	s.blockedForAS(100)
	if n := s.rebuilds.Load(); n != 3 {
		t.Fatalf("AS-100 rebuilt on an unrelated AS-200 re-post (rebuilds=%d)", n)
	}
}

// oracle applies the paper's §5 aggregation straight to an input log: a
// report replaces the same client's earlier (url, asn) report (dedup), each
// client spreads one vote over its d distinct keys, and per (url, asn)
// s_jk = Σ 1/d_i and n_jk count the non-revoked reporters. Batches from
// unknown or revoked clients are rejected whole.
type oracle struct {
	users   map[string]bool
	revoked map[string]bool
	keys    map[string]map[string]time.Time // uuid → "url|asn" → post time
	updates int
}

func newOracle() *oracle {
	return &oracle{users: map[string]bool{}, revoked: map[string]bool{}, keys: map[string]map[string]time.Time{}}
}

func (o *oracle) ingest(uuid string, now time.Time, batch []Report) bool {
	if !o.users[uuid] || o.revoked[uuid] {
		return false
	}
	if o.keys[uuid] == nil {
		o.keys[uuid] = map[string]time.Time{}
	}
	for _, r := range batch {
		if r.URL == "" || r.ASN == 0 {
			continue
		}
		key := fmt.Sprintf("%s|%d", r.URL, r.ASN)
		if _, seen := o.keys[uuid][key]; !seen {
			o.updates++
		}
		o.keys[uuid][key] = now
	}
	return true
}

func (o *oracle) blocked(asn int) []Entry {
	byURL := map[string]*Entry{}
	for uuid, keys := range o.keys {
		if o.revoked[uuid] {
			continue
		}
		for key, tp := range keys {
			url, a, _ := strings.Cut(key, "|")
			if a != fmt.Sprint(asn) {
				continue
			}
			e := byURL[url]
			if e == nil {
				e = &Entry{URL: url, ASN: asn}
				byURL[url] = e
			}
			e.Votes += 1 / float64(len(keys))
			e.Reporters++
			if tp.After(e.LastTp) {
				e.LastTp = tp
			}
		}
	}
	out := make([]Entry, 0, len(byURL))
	for _, e := range byURL {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// TestStoreMatchesOracle drives a randomized workload — with a revocation
// mid-way, so later batches from the revoked client are rejected — into
// every store configuration and requires the oracle's aggregation: entries,
// order, votes (up to float summation order), reporters, post times, and
// the user/URL/AS/updates stats.
func TestStoreMatchesOracle(t *testing.T) {
	for _, f := range storeFactories() {
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			s, o := f.mk(t), newOracle()
			const users, ases = 30, 4
			for u := 0; u < users; u++ {
				id := fmt.Sprintf("user-%02d", u)
				mustAddUser(t, s, id)
				o.users[id] = true
			}
			for round := 0; round < 30; round++ {
				if round == 15 {
					mustRevoke(t, s, "user-03")
					o.revoked["user-03"] = true
				}
				u := fmt.Sprintf("user-%02d", rng.Intn(users))
				if round%10 == 9 {
					u = "user-03"
				}
				batch := mkReports(rng, 1+rng.Intn(6), ases)
				now := t0.Add(time.Duration(round) * time.Minute)
				_, err := s.ingest(u, now, batch)
				if want := o.ingest(u, now, batch); (err == nil) != want {
					t.Fatalf("round %d: ingest by %s: err %v, oracle accepts %v", round, u, err, want)
				}
			}

			for asn := 100; asn < 100+ases; asn++ {
				got, want := s.blockedForAS(asn), o.blocked(asn)
				if len(got) != len(want) {
					t.Fatalf("asn %d: %d entries, oracle %d", asn, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.URL != w.URL || g.Reporters != w.Reporters || !g.LastTp.Equal(w.LastTp) {
						t.Fatalf("asn %d entry %d: %+v, oracle %+v", asn, i, g, w)
					}
					if math.Abs(g.Votes-w.Votes) > 1e-9 {
						t.Fatalf("asn %d %s: votes %v, oracle %v", asn, g.URL, g.Votes, w.Votes)
					}
				}
			}

			urls, asns := map[string]bool{}, map[string]bool{}
			for uuid, keys := range o.keys {
				if o.revoked[uuid] {
					continue
				}
				for key := range keys {
					url, asn, _ := strings.Cut(key, "|")
					urls[url], asns[asn] = true, true
				}
			}
			st := s.stats()
			if st.Users != users || st.BlockedURLs != len(urls) || st.ASes != len(asns) || st.Updates != o.updates {
				t.Fatalf("stats %+v, oracle users=%d urls=%d ases=%d updates=%d",
					st, users, len(urls), len(asns), o.updates)
			}
		})
	}
}

// TestShardedRevokeInvalidates: a revocation must drop the client's votes
// from already-cached snapshots.
func TestShardedRevokeInvalidates(t *testing.T) {
	s := newShardedState()
	s.addUser("good")
	s.addUser("bad")
	s.ingest("good", t0, []Report{{URL: "a.example/", ASN: 100, Tm: t0}})
	s.ingest("bad", t0, []Report{{URL: "a.example/", ASN: 100, Tm: t0}})
	if e := s.blockedForAS(100); len(e) != 1 || e[0].Reporters != 2 {
		t.Fatalf("before revoke: %+v", e)
	}
	s.revoke("bad")
	if e := s.blockedForAS(100); len(e) != 1 || e[0].Reporters != 1 {
		t.Fatalf("after revoke: %+v", e)
	}
	if _, ok := s.ingest("bad", t0, []Report{{URL: "b.example/", ASN: 100, Tm: t0}}); ok {
		t.Fatal("revoked uuid may not ingest")
	}
}

// TestShardedUpdatesDedup: the updates counter counts unique (uuid, url|asn)
// keys, so ack-lost re-posts cannot inflate it.
func TestShardedUpdatesDedup(t *testing.T) {
	s := newShardedState()
	s.addUser("u1")
	batch := []Report{
		{URL: "a.example/", ASN: 100, Tm: t0},
		{URL: "b.example/", ASN: 100, Tm: t0},
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.ingest("u1", t0.Add(time.Duration(i)*time.Minute), batch); !ok {
			t.Fatal("ingest rejected")
		}
	}
	if got := s.stats().Updates; got != 2 {
		t.Fatalf("updates = %d after re-posts, want 2 unique", got)
	}
}
