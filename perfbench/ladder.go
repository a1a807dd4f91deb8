package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

const (
	// ladderScale is the clock scale of the figure 7 experiments.
	ladderScale = 400
	// ladderCycles is how often a repetition walks the page list; each
	// cycle has first-visit pages of its own.
	ladderCycles = 24
	ladderASN    = 19000
	// openHost is the unblocked page: a single-site frontable origin, so
	// every approach (IP-as-hostname and fronting included) can load it.
	openHost = "open.example.org"
	// multiHost sits behind DNS drop plus IP drop: only relays reach it.
	multiHost = "multi.example.org"
	// Hosts under these zones are visited once each, so every visit runs
	// detection to its timeout: TCP/IP drop, and DNS SERVFAIL.
	ipDropZone   = "ipdrop.example"
	servFailZone = "servfail.example"
)

// ladderPage is one page load: the host/path, its expected base document,
// and whether the censor blocks it (then it must be served by
// circumvention).
type ladderPage struct {
	host    string
	body    []byte
	blocked bool
}

// ladderInstance is the case-study world on the scaled clock: one censoring
// ISP whose policy combines the mechanisms of figures 7a-7c, 1c and table 5,
// a full-weight C-Saw client, and every approach's transport on a second
// host. An op is one page load.
type ladderInstance struct {
	w      *worldgen.World
	isp    *worldgen.ISP
	cl     *core.Client
	gdb    *globaldb.Client
	apps   []*core.Approach
	cycles [][]ladderPage // the C-Saw client's page list, per cycle
	open   ladderPage     // loaded over every approach each cycle
	rec    *recorder
}

func setupLadder(ctx context.Context, seed int64, rec *recorder) (instance, error) {
	return newLadder(ctx, seed, ladderCycles, rec)
}

func newLadder(ctx context.Context, seed int64, cycles int, rec *recorder) (*ladderInstance, error) {
	_, end := rec.begin(ctx, "worldgen.build")
	l, err := buildLadderWorld(seed, cycles)
	end()
	if err != nil {
		return nil, err
	}
	l.rec = rec
	host := l.w.NewClientHost("ladder-csaw", l.isp)
	cfg := l.w.ClientConfig(host, seed)
	cfg.ASNProbeAddr = ""
	l.gdb = cfg.GlobalDB
	if l.cl, err = core.New(cfg); err != nil {
		return nil, err
	}
	if err := l.gdb.Register(ctx, cfg.CaptchaToken); err != nil {
		return nil, err
	}
	l.apps = l.w.Approaches(l.w.NewClientHost("ladder-approaches", l.isp), seed+11)
	if len(l.apps) != len(approachNames) {
		return nil, fmt.Errorf("world carries %d approaches, benchmark reports %d", len(l.apps), len(approachNames))
	}
	for i, a := range l.apps {
		if a.Name != approachNames[i] {
			return nil, fmt.Errorf("approach %d is %q, benchmark reports %q", i, a.Name, approachNames[i])
		}
		a.Transport.Dialer = rec.dialer(a.Transport.Dialer)
		a.Transport.Lookup = rec.lookup(a.Transport.Lookup)
	}
	return l, nil
}

// buildLadderWorld builds the sites and the censoring ISP.
func buildLadderWorld(seed int64, cycles int) (*ladderInstance, error) {
	w, err := worldgen.New(worldgen.Options{Scale: ladderScale, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	site := func(host string, sizes ...int) *web.Site {
		s := web.NewSite(host)
		s.AddPage("/", host, sizes[0], sizes[1:]...)
		return s
	}
	open := site(openHost, 20<<10, 60<<10, 40<<10, 20<<10)
	multi := site(multiHost, 12<<10, 30<<10, 20<<10)
	var ipDrop, servFail []*web.Site
	for i := 0; i < cycles; i++ {
		ipDrop = append(ipDrop, site(fmt.Sprintf("f%03d.%s", i, ipDropZone), 8<<10, 16<<10))
		servFail = append(servFail, site(fmt.Sprintf("f%03d.%s", i, servFailZone), 8<<10, 16<<10))
	}
	for _, o := range []struct {
		name      string
		frontable bool
		sites     []*web.Site
	}{
		{"origin-open", true, []*web.Site{open}},
		{"origin-multi", false, []*web.Site{multi}},
		{"origin-ipdrop", false, ipDrop},
		{"origin-servfail", false, servFail},
	} {
		if _, err := w.AddOrigin(o.name, o.frontable, o.sites...); err != nil {
			return nil, err
		}
	}
	ip := func(host string) string { return w.Registry.Lookup(host)[0] }
	isp, err := w.AddISP(ladderASN, "ISP-LADDER", &censor.Policy{
		Name: "ladder",
		DNS: map[string]censor.DNSAction{
			worldgen.SmallHost: censor.DNSNXDomain,
			multiHost:          censor.DNSDrop,
			servFailZone:       censor.DNSServFail,
		},
		IP: map[string]censor.IPAction{
			ip(multiHost):      censor.IPDrop,
			ip(ipDrop[0].Host): censor.IPDrop,
		},
		HTTP:     []censor.HTTPRule{{Host: worldgen.LargeHost, Action: censor.HTTPBlockPage}},
		Keywords: []censor.KeywordRule{{Keyword: "hot.example", Action: censor.HTTPReset}},
	})
	if err != nil {
		return nil, err
	}

	// Expected bodies come from the origins themselves, fetched over an
	// uncensored path.
	refHost := w.Net.MustAddHost("ladder-reference", "172.31.0.1", "pk", w.Net.AddAS(64999, "uncensored", "PK"))
	ref := &web.Transport{Label: "reference", Dialer: refHost.Dial, Lookup: w.RegistryLookup(), Clock: w.Clock}
	page := func(host string, blocked bool) (ladderPage, error) {
		resp, err := ref.Fetch(context.Background(), host, "/")
		if err != nil {
			return ladderPage{}, fmt.Errorf("reference fetch of %s: %w", host, err)
		}
		return ladderPage{host: host, body: resp.Body, blocked: blocked}, nil
	}
	l := &ladderInstance{w: w, isp: isp}
	if l.open, err = page(openHost, false); err != nil {
		return nil, err
	}
	var fixed []ladderPage
	for _, h := range []string{
		worldgen.SmallHost, // DNS NXDOMAIN: public-DNS fix (figure 7a)
		multiHost,          // DNS + IP drop: relays only (figure 7c)
		worldgen.PornHost,  // keyword RST: IP-as-hostname (figure 1c)
		worldgen.LargeHost, // block page: classification, then a fix
	} {
		p, err := page(h, true)
		if err != nil {
			return nil, err
		}
		fixed = append(fixed, p)
	}
	for i := 0; i < cycles; i++ {
		// First visits that run detection to its timeout (table 5).
		ipp, err := page(ipDrop[i].Host, true)
		if err != nil {
			return nil, err
		}
		sfp, err := page(servFail[i].Host, true)
		if err != nil {
			return nil, err
		}
		l.cycles = append(l.cycles, append(append([]ladderPage{l.open}, fixed...), ipp, sfp))
	}
	return l, nil
}

// sourceFetcher routes a browser through the C-Saw client like
// core.Client.Fetch does, remembering which path served the base document.
type sourceFetcher struct {
	cl      *core.Client
	mu      sync.Mutex
	base    string // Result.Source of the first fetch
	fetched bool
}

func (f *sourceFetcher) Fetch(ctx context.Context, host, path string) (*httpx.Response, error) {
	res := f.cl.FetchURL(ctx, localdb.JoinURL(host, path))
	f.mu.Lock()
	if !f.fetched {
		f.base, f.fetched = res.Source, true
	}
	f.mu.Unlock()
	if res.Err != nil {
		return nil, res.Err
	}
	return res.Resp, nil
}

// run loads each cycle's pages serially through the C-Saw client, then the
// unblocked page over every approach's transport, then lets the client
// settle and sync with the global DB.
func (l *ladderInstance) run(ctx context.Context) (*phase, error) {
	ph := newPhase()
	v0 := l.w.Clock.Now()
	c0, s0 := l.cl.CountersSnapshot(), l.gdb.Stats()
	load := func(span string, f web.Fetcher, p ladderPage, kind string) {
		lctx, end := l.rec.begin(ctx, span)
		pr := (&web.Browser{Transport: f, ClockSrc: l.w.Clock}).Load(lctx, p.host, "/")
		end()
		ph.Ops++
		ph.Attempted++
		switch {
		case !pr.OK():
			ph.Failed++
			ph.Problems = append(ph.Problems, fmt.Sprintf("%s %s: status %d, %v", span, p.host, pr.Status, pr.Err))
		case !bytes.Equal(pr.Body, p.body):
			ph.Problems = append(ph.Problems, fmt.Sprintf("%s %s: body differs from the origin's", span, p.host))
		default:
			ph.Samples[kind] = append(ph.Samples[kind], pr.PLT.Seconds())
		}
	}
	for _, cycle := range l.cycles {
		for _, p := range cycle {
			kind := "plt_s"
			if p.host == openHost {
				kind = "open_plt_s"
			}
			f := &sourceFetcher{cl: l.cl}
			load("core.load", f, p, kind)
			if p.blocked && f.base == "direct" {
				ph.Problems = append(ph.Problems, fmt.Sprintf("blocked page %s served by the direct path", p.host))
			}
		}
		for _, a := range l.apps {
			load("web.load", a.Transport, l.open, "approach."+a.Name)
		}
		l.cl.WaitIdle()
		sctx, end := l.rec.begin(ctx, "core.sync")
		err := l.cl.SyncNow(sctx)
		end()
		if err != nil {
			return nil, fmt.Errorf("sync: %w", err)
		}
	}
	// The C-Saw client's PLT covers every page it loads.
	ph.Samples["plt_s"] = append(ph.Samples["plt_s"], ph.Samples["open_plt_s"]...)
	ph.Virtual = l.w.Clock.Since(v0)

	c1, s1 := l.cl.CountersSnapshot(), l.gdb.Stats()
	for _, k := range []string{"served-circum", "circum-copy-sent", "phase2-confirm"} {
		ph.Counts[k] = float64(c1[k] - c0[k])
	}
	ph.Counts["fetches"] = float64(c1["served-direct"]-c0["served-direct"]) + ph.Counts["served-circum"]
	ph.Counts["list-full"] = float64(s1.FetchFull - s0.FetchFull)
	ph.Counts["list-delta"] = float64(s1.FetchDelta - s0.FetchDelta)
	ph.Counts["list-304"] = float64(s1.Fetch304 - s0.Fetch304)
	ph.Counts["list-fetches"] = ph.Counts["list-full"] + ph.Counts["list-delta"] + ph.Counts["list-304"]
	ph.Counts["list-bytes"] = float64(s1.ListBytes - s0.ListBytes)
	ph.Counts["censor-events"] = float64(l.isp.Censor.Stats.Total())
	return ph, nil
}

// check holds the paper's ordering on the unblocked page: C-Saw (direct
// path) beats Lantern, which beats Tor, by median PLT.
func (l *ladderInstance) check(_ context.Context, ph *phase) error {
	csaw := median0(ph.Samples["open_plt_s"])
	lantern := median0(ph.Samples["approach.lantern"])
	tor := median0(ph.Samples["approach.tor"])
	if !(csaw < lantern && lantern < tor) {
		ph.Problems = append(ph.Problems, fmt.Sprintf("unblocked page median PLT: C-Saw %.3fs, Lantern %.3fs, Tor %.3fs; want C-Saw < Lantern < Tor", csaw, lantern, tor))
	}
	delete(ph.Samples, "open_plt_s")
	return nil
}

func (l *ladderInstance) close() error {
	l.cl.Close()
	return nil
}
