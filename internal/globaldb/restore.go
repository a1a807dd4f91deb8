package globaldb

import (
	"sort"
	"strconv"
	"time"

	"csaw/internal/globaldb/storage"
)

// Snapshot export/restore for the sharded store. exportState serializes
// everything a restart must reproduce — users, reports, the dedup-aware
// updates counter, the revocation epoch, and each AS index's version
// counter. Restoring the exact counters (rather than replaying writes and
// recomputing) is what keeps validator tags stable across a restart: a tag
// names a (version, revocation-epoch) pair, so a client that fetched before
// the crash must see the same tag for the same aggregation after it.

// nanoOf converts a store timestamp for serialization. The zero time maps
// to 0 (time.Time{}.UnixNano() is outside the representable range); a real
// instant exactly at the 1970 epoch never occurs under the vtime clock.
func nanoOf(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// timeOf inverts nanoOf. The .UTC() matters: time.Unix returns a
// Local-zone instant, and a zone change would alter the JSON encoding of
// every served body even though the instant is the same.
func timeOf(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// stagesToStorage converts wire stages, preserving nil-ness (nil and empty
// marshal differently in served entries).
func stagesToStorage(ws []WireStage) []storage.Stage {
	if ws == nil {
		return nil
	}
	out := make([]storage.Stage, len(ws))
	for i, s := range ws {
		out[i] = storage.Stage{Type: s.Type, Detail: s.Detail}
	}
	return out
}

func stagesFromStorage(ss []storage.Stage) []WireStage {
	if ss == nil {
		return nil
	}
	out := make([]WireStage, len(ss))
	for i, s := range ss {
		out[i] = WireStage{Type: s.Type, Detail: s.Detail}
	}
	return out
}

func reportsToStorage(rs []Report) []storage.Report {
	out := make([]storage.Report, len(rs))
	for i, r := range rs {
		out[i] = storage.Report{URL: r.URL, ASN: r.ASN, Stages: stagesToStorage(r.Stages), Tm: nanoOf(r.Tm)}
	}
	return out
}

func reportsFromStorage(rs []storage.Report) []Report {
	out := make([]Report, len(rs))
	for i, r := range rs {
		out[i] = Report{URL: r.URL, ASN: r.ASN, Stages: stagesFromStorage(r.Stages), Tm: timeOf(r.Tm)}
	}
	return out
}

// exportState snapshots the full store. Users, their reports, and AS
// versions are emitted in sorted order so the snapshot is a deterministic
// function of store contents. Safe to call concurrently with reads; the
// store serializes it against writes.
func (s *shardedState) exportState() *storage.State {
	st := &storage.State{Updates: s.updates.Load(), RevEpoch: s.revEpoch.Load()}
	type user struct {
		uuid string
		cs   *clientState
	}
	var all []user
	for i := range s.users {
		sh := &s.users[i]
		sh.mu.RLock()
		for uuid, cs := range sh.m {
			all = append(all, user{uuid, cs})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(a, b int) bool { return all[a].uuid < all[b].uuid })
	for _, u := range all {
		us := storage.UserState{UUID: u.uuid, Revoked: u.cs.revoked.Load()}
		u.cs.mu.Lock()
		keys := make([]string, 0, len(u.cs.reports))
		for k := range u.cs.reports {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r := u.cs.reports[k]
			us.Reports = append(us.Reports, storage.StoredReport{
				URL: r.url, ASN: r.asn, Stages: stagesToStorage(r.stages),
				Tm: nanoOf(r.tm), Tp: nanoOf(r.tp),
			})
		}
		u.cs.mu.Unlock()
		st.Users = append(st.Users, us)
	}
	for i := range s.index {
		sh := &s.index[i]
		sh.mu.RLock()
		for asn, idx := range sh.m {
			st.ASVersions = append(st.ASVersions, storage.ASVersion{ASN: asn, Version: idx.version.Load()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(st.ASVersions, func(a, b int) bool { return st.ASVersions[a].ASN < st.ASVersions[b].ASN })
	return st
}

// newShardedFromState rebuilds a store from a snapshot. Single-threaded
// (runs before the server is attached), so it can fill client state and the
// AS indexes without the ingest path's two-phase locking.
func newShardedFromState(st *storage.State) *shardedState {
	s := newShardedState()
	s.updates.Store(st.Updates)
	s.revEpoch.Store(st.RevEpoch)
	for _, us := range st.Users {
		s.addUser(us.UUID)
		cs := s.lookupClient(us.UUID)
		cs.revoked.Store(us.Revoked)
		cs.mu.Lock()
		// Keep the snapshot's slice order: ranging over cs.reports here
		// would bake map order into the index-fill below.
		reports := make([]*clientReport, 0, len(us.Reports))
		for _, r := range us.Reports {
			rep := &clientReport{
				url: r.URL, asn: r.ASN, stages: stagesFromStorage(r.Stages),
				tm: timeOf(r.Tm), tp: timeOf(r.Tp),
			}
			cs.reports[r.URL+"|"+strconv.Itoa(r.ASN)] = rep
			cs.asns[r.ASN] = true
			reports = append(reports, rep)
		}
		cs.d.Store(int64(len(cs.reports)))
		cs.mu.Unlock()
		for _, rep := range reports {
			idx := s.asIndexFor(rep.asn, true)
			idx.mu.Lock()
			byUUID := idx.byURL[rep.url]
			if byUUID == nil {
				byUUID = make(map[string]indexed)
				idx.byURL[rep.url] = byUUID
			}
			byUUID[us.UUID] = indexed{rep: rep, cs: cs}
			idx.mu.Unlock()
		}
	}
	// Restore the exact version counters last: asIndexFor above created the
	// indexes at version 0, and tags must match the pre-snapshot server's.
	for _, av := range st.ASVersions {
		s.asIndexFor(av.ASN, true).version.Store(av.Version)
	}
	return s
}
