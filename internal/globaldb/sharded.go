package globaldb

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/localdb"
)

// numShards partitions both the uuid table and the per-AS index. Sixteen
// shards keeps lock regions small at O(10k) clients without measurable
// overhead at pilot scale.
const numShards = 16

// shardedState is the store's in-memory aggregation state. Design (see
// DESIGN.md "scale architecture"):
//
//   - User state is sharded by uuid hash. Each client's reports live in its
//     clientState; the report count d and the revoked flag are atomics so the
//     per-AS aggregation can read them without touching any uuid-shard lock.
//   - A per-AS inverted index (asn → url → uuid → report) is sharded by ASN,
//     so report ingestion only locks the client's own state plus the indexes
//     of the ASes in the batch, and BlockedForAS touches one AS's data
//     instead of scanning every client.
//   - Each AS index carries a version counter bumped after every write that
//     could change its aggregation (new/replaced reports, and any change to
//     a reporting client's d). BlockedForAS serves a cached sorted snapshot
//     — entries plus the pre-marshaled /v1/blocked body — and rebuilds only
//     when the version or the global revocation epoch moved. Repeated reads
//     of an unchanged AS never re-aggregate or re-sort (the regression test
//     watches the rebuilds counter).
//
// Lock order: uuid shard → clientState, and snapshot mutex → AS index read
// lock. The uuid-side and AS-side locks are never held together; ingest
// releases the clientState before touching the index, relying on report
// records being immutable-and-replaced.
type shardedState struct {
	users    [numShards]uuidShard
	index    [numShards]asShard
	updates  atomic.Int64 // unique (uuid, url|asn) keys ever accepted
	revEpoch atomic.Int64 // bumped on revoke; invalidates every snapshot
	rebuilds atomic.Int64 // snapshot recomputations, observable in tests
	histMax  atomic.Int64 // per-AS delta history cap; 0 = deltaHistoryMax
}

// setDeltaHistory raises (or lowers) the per-AS delta edit-history cap.
func (s *shardedState) setDeltaHistory(n int) { s.histMax.Store(int64(n)) }

type uuidShard struct {
	mu sync.RWMutex
	m  map[string]*clientState
}

// clientState is one registered client's server-side state.
type clientState struct {
	revoked atomic.Bool
	d       atomic.Int64 // len(reports), readable without cs.mu

	mu      sync.Mutex
	reports map[string]*clientReport // "url|asn" → report
	asns    map[int]bool             // ASes this client has reported on
}

type asShard struct {
	mu sync.RWMutex
	m  map[int]*asIndex
}

// asIndex is the inverted per-AS report index plus its snapshot cache.
type asIndex struct {
	asn     int
	version atomic.Int64

	mu    sync.RWMutex
	byURL map[string]map[string]indexed // url → uuid → report

	// Snapshot cache. snapMu also serializes rebuilds so concurrent fetchers
	// of a dirty AS do the aggregation once, and guards the delta history:
	// recording an edit and serving a delta happen in the same critical
	// section as the rebuild, so a delta body is always paired with the tag
	// of the snapshot it was computed against.
	snapMu  sync.Mutex
	snapVer int64
	snapRev int64
	valid   bool
	entries []Entry
	body    []byte
	history []deltaEdit
}

// indexed pairs a report with its owner's state so aggregation can read the
// owner's d and revoked flag without any uuid-shard lookup.
type indexed struct {
	rep *clientReport
	cs  *clientState
}

func newShardedState() *shardedState {
	s := &shardedState{}
	for i := range s.users {
		s.users[i].m = make(map[string]*clientState)
	}
	for i := range s.index {
		s.index[i].m = make(map[int]*asIndex)
	}
	return s
}

func (s *shardedState) uuidShard(uuid string) *uuidShard {
	h := fnv.New32a()
	h.Write([]byte(uuid))
	return &s.users[h.Sum32()%numShards]
}

func (s *shardedState) lookupClient(uuid string) *clientState {
	sh := s.uuidShard(uuid)
	sh.mu.RLock()
	cs := sh.m[uuid]
	sh.mu.RUnlock()
	return cs
}

func (s *shardedState) addUser(uuid string) {
	sh := s.uuidShard(uuid)
	sh.mu.Lock()
	if sh.m[uuid] == nil {
		sh.m[uuid] = &clientState{
			reports: make(map[string]*clientReport),
			asns:    make(map[int]bool),
		}
	}
	sh.mu.Unlock()
}

// asIndexFor returns the index for asn, creating it when create is set.
func (s *shardedState) asIndexFor(asn int, create bool) *asIndex {
	sh := &s.index[asn%numShards]
	sh.mu.RLock()
	idx := sh.m[asn]
	sh.mu.RUnlock()
	if idx != nil || !create {
		return idx
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if idx = sh.m[asn]; idx == nil {
		idx = &asIndex{asn: asn, byURL: make(map[string]map[string]indexed)}
		sh.m[asn] = idx
	}
	return idx
}

func (s *shardedState) ingest(uuid string, now time.Time, reports []Report) (int, bool) {
	cs := s.lookupClient(uuid)
	if cs == nil || cs.revoked.Load() {
		return 0, false
	}

	// Phase 1: fold the batch into the client's own state under cs.mu,
	// grouping index writes per ASN for phase 2.
	type write struct {
		url string
		rep *clientReport
	}
	perASN := make(map[int][]write)
	var affected []int
	accepted, newKeys := 0, 0
	cs.mu.Lock()
	for _, r := range reports {
		if r.URL == "" || r.ASN == 0 {
			continue
		}
		key := r.URL + "|" + strconv.Itoa(r.ASN)
		if _, seen := cs.reports[key]; !seen {
			newKeys++
			cs.asns[r.ASN] = true
		}
		rep := &clientReport{url: r.URL, asn: r.ASN, stages: r.Stages, tm: r.Tm, tp: now}
		cs.reports[key] = rep
		perASN[r.ASN] = append(perASN[r.ASN], write{url: r.URL, rep: rep})
		accepted++
	}
	cs.d.Store(int64(len(cs.reports)))
	if newKeys > 0 {
		// d changed: every AS this client votes in must re-aggregate, not
		// just the ones in this batch.
		affected = make([]int, 0, len(cs.asns))
		for asn := range cs.asns {
			affected = append(affected, asn)
		}
	} else {
		affected = make([]int, 0, len(perASN))
		for asn := range perASN {
			affected = append(affected, asn)
		}
	}
	// Re-aggregation is per-AS and commutative, but a deterministic order
	// keeps snapshot-build timing (and any future tie-break) seed-stable.
	sort.Ints(affected)
	cs.mu.Unlock()

	if accepted == 0 {
		return 0, true
	}
	s.updates.Add(int64(newKeys))

	// Phase 2: apply the grouped writes, one lock acquisition per AS index.
	for asn, ws := range perASN {
		idx := s.asIndexFor(asn, true)
		idx.mu.Lock()
		for _, w := range ws {
			byUUID := idx.byURL[w.url]
			if byUUID == nil {
				byUUID = make(map[string]indexed)
				idx.byURL[w.url] = byUUID
			}
			byUUID[uuid] = indexed{rep: w.rep, cs: cs}
		}
		idx.mu.Unlock()
	}
	// Version bumps happen after the writes land so a concurrent rebuild
	// that saw pre-write data also saw the pre-bump version and will rebuild
	// again on the next read.
	for _, asn := range affected {
		if idx := s.asIndexFor(asn, false); idx != nil {
			idx.version.Add(1)
		}
	}
	return accepted, true
}

func (s *shardedState) blockedForAS(asn int) []Entry {
	entries, _, _ := s.snapshot(asn)
	out := make([]Entry, len(entries))
	copy(out, entries)
	return out
}

func (s *shardedState) fetchResponse(asn int, inm string) fetchResult {
	rev := s.revEpoch.Load()
	idx := s.asIndexFor(asn, false)
	if idx == nil {
		// No reports yet: version 0. The tag still varies with the
		// revocation epoch so it can never collide with a post-write tag.
		tag := snapTag(0, rev)
		if inm != "" && inm == tag {
			return fetchResult{tag: tag, notModified: true}
		}
		return fetchResult{body: emptyFetchBody(asn), tag: tag}
	}
	ver := idx.version.Load()
	idx.snapMu.Lock()
	defer idx.snapMu.Unlock()
	s.rebuildLocked(idx, ver, rev)
	tag := snapTag(idx.snapVer, idx.snapRev)
	if inm != "" {
		if inm == tag {
			return fetchResult{tag: tag, notModified: true}
		}
		if body := idx.deltaBodyLocked(inm); body != nil {
			return fetchResult{body: body, tag: tag, delta: true}
		}
	}
	return fetchResult{body: idx.body, tag: tag}
}

// snapshot returns the cached aggregation for asn, rebuilding it only when a
// write or revocation moved the AS's version since the last build, plus the
// validator tag naming the (version, revocation-epoch) pair the snapshot was
// built at. The returned slice and body are shared and must not be mutated.
func (s *shardedState) snapshot(asn int) ([]Entry, []byte, string) {
	rev := s.revEpoch.Load()
	idx := s.asIndexFor(asn, false)
	if idx == nil {
		return nil, emptyFetchBody(asn), snapTag(0, rev)
	}
	// Load the version before reading index data: a write landing between
	// the two makes the cached version stale, forcing a harmless rebuild on
	// the next read rather than ever serving stale data as fresh.
	ver := idx.version.Load()
	idx.snapMu.Lock()
	defer idx.snapMu.Unlock()
	s.rebuildLocked(idx, ver, rev)
	return idx.entries, idx.body, snapTag(idx.snapVer, idx.snapRev)
}

// rebuildLocked brings idx's snapshot cache up to (ver, rev), recording the
// change set against the previous snapshot in the delta history. No-op when
// the cache is already at that state. Caller holds idx.snapMu.
func (s *shardedState) rebuildLocked(idx *asIndex, ver, rev int64) {
	if idx.valid && idx.snapVer == ver && idx.snapRev == rev {
		return
	}
	s.rebuilds.Add(1)
	entries := s.aggregate(idx)
	body, err := json.Marshal(FetchResponse{ASN: idx.asn, Entries: entries})
	if err != nil {
		body = emptyFetchBody(idx.asn)
	}
	if idx.valid {
		idx.recordEditLocked(snapTag(idx.snapVer, idx.snapRev), idx.entries, entries, int(s.histMax.Load()))
	}
	idx.entries, idx.body = entries, body
	idx.snapVer, idx.snapRev, idx.valid = ver, rev, true
}

// snapTag renders a snapshot's (version, revocation epoch) as the ETag
// served by /v1/blocked. Both counters only grow, so equal tags always name
// the same aggregation state.
func snapTag(ver, rev int64) string {
	return strconv.FormatInt(ver, 10) + "." + strconv.FormatInt(rev, 10)
}

// aggregate computes the §5 voting aggregation for one AS. Everything that
// feeds the output is made order-independent so same-seed fleet runs produce
// byte-identical blocked lists: URLs are sorted, vote contributions are
// summed in sorted order (float addition is not associative), and the
// representative-stages tie between equal post times breaks on uuid.
func (s *shardedState) aggregate(idx *asIndex) []Entry {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	urls := make([]string, 0, len(idx.byURL))
	for u := range idx.byURL {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	entries := make([]Entry, 0, len(urls))
	votes := make([]float64, 0, 16)
	for _, u := range urls {
		e := Entry{URL: u, ASN: idx.asn}
		votes = votes[:0]
		bestUUID := ""
		for uuid, ir := range idx.byURL[u] {
			if ir.cs.revoked.Load() {
				continue
			}
			d := ir.cs.d.Load()
			if d == 0 {
				continue
			}
			votes = append(votes, 1/float64(d))
			e.Reporters++
			r := ir.rep
			switch {
			case bestUUID == "" || r.tp.After(e.LastTp):
				e.LastTp, e.Stages, bestUUID = r.tp, r.stages, uuid
			case r.tp.Equal(e.LastTp) && uuid < bestUUID:
				e.Stages, bestUUID = r.stages, uuid
			}
		}
		if e.Reporters == 0 {
			continue
		}
		sort.Float64s(votes)
		for _, v := range votes {
			e.Votes += v
		}
		entries = append(entries, e)
	}
	return entries
}

// emptyFetchBody is the no-entries body. Entries is an empty slice, not
// nil, so an AS that never had reports serves the same bytes
// ("entries":[]) as one whose reports were all revoked.
func emptyFetchBody(asn int) []byte {
	b, _ := json.Marshal(FetchResponse{ASN: asn, Entries: []Entry{}})
	return b
}

func (s *shardedState) revoke(uuid string) {
	if cs := s.lookupClient(uuid); cs != nil {
		cs.revoked.Store(true)
	}
	// Revocations are rare (§5 abuse response); one epoch bump invalidating
	// every AS snapshot is simpler than tracking the client's AS set here.
	s.revEpoch.Add(1)
}

func (s *shardedState) stats() Stats {
	st := Stats{ByType: make(map[string]int)}
	urls := make(map[string]bool)
	domains := make(map[string]bool)
	ases := make(map[int]bool)
	types := make(map[string]bool)
	urlType := make(map[string]string)
	// Fold in sorted client and report order: urlType is last-write-wins
	// per URL, so folding in map order would let the shard map's iteration
	// order pick the winning class when reports disagree.
	type uuidState struct {
		uuid string
		cs   *clientState
	}
	for i := range s.users {
		sh := &s.users[i]
		sh.mu.RLock()
		states := make([]uuidState, 0, len(sh.m))
		for uuid, cs := range sh.m {
			states = append(states, uuidState{uuid, cs})
		}
		st.Users += len(sh.m)
		sh.mu.RUnlock()
		sort.Slice(states, func(a, b int) bool { return states[a].uuid < states[b].uuid })
		for _, us := range states {
			cs := us.cs
			if cs.revoked.Load() {
				continue
			}
			cs.mu.Lock()
			keys := make([]string, 0, len(cs.reports))
			for k := range cs.reports {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				r := cs.reports[k]
				urls[r.url] = true
				host, _ := localdb.SplitURL(r.url)
				domains[host] = true
				ases[r.asn] = true
				cls := primaryClass(r.stages)
				types[cls] = true
				urlType[r.url] = cls
			}
			cs.mu.Unlock()
		}
	}
	for _, cls := range urlType {
		st.ByType[cls]++
	}
	st.BlockedURLs = len(urls)
	st.BlockedDomains = len(domains)
	st.ASes = len(ases)
	st.BlockTypes = len(types)
	st.Updates = int(s.updates.Load())
	return st
}
