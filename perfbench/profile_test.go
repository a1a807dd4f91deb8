package main

import (
	"runtime"
	"testing"

	"csaw/internal/web"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"csaw/internal/netem.(*pipe).Write":              "csaw/internal/netem",
		"csaw/internal/globaldb/storage.EncodeRecord":    "csaw/internal/globaldb/storage",
		"csaw/internal/core.(*Client).FetchURL.func1":    "csaw/internal/core",
		"runtime.mallocgc":                               "runtime",
		"encoding/json.(*encodeState).marshal":           "encoding/json",
		"main.main":                                      "main",
		"csaw/internal/metrics.sortedKeys[go.shape.int]": "csaw/internal/metrics",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeChargesInnermostRepoFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "csaw/internal/netem.(*pipe).Write", "csaw/internal/core.f"}, "netem"},
		{[]string{"encoding/json.Marshal", "csaw/internal/globaldb/storage.EncodeRecord"}, "storage"},
		{[]string{"csaw/internal/globaldb/replica.(*Follower).SyncOnce"}, "replica"},
		{[]string{"csaw/internal/globaldb.(*Client).do", "main.main"}, "globaldb"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"csaw/internal/metrics.(*Distribution).Add", "main.main"}, "other"},
		{[]string{"syscall.Syscall6"}, "other"},
		{nil, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var renderSink [][]byte

// TestAllocSnapshotAttributesRepoAllocations decodes a real allocation
// profile: allocations made by the web package must be charged to it.
func TestAllocSnapshotAttributesRepoAllocations(t *testing.T) {
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	site := web.NewSite("alloc.example")
	page := site.AddPage("/", "alloc", 4<<10)
	before, err := allocSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		renderSink = append(renderSink, web.RenderHTML(page))
	}
	after, err := allocSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	objs := after["web"].A - before["web"].A
	bytes := after["web"].B - before["web"].B
	if objs < n || bytes < n*4<<10 {
		t.Errorf("web allocations: %g objects, %g bytes; want at least %d objects of 4 KiB", objs, bytes, n)
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	// Field 2 (sample), length-delimited, claiming 5 bytes but carrying 1.
	if _, err := parseProfile([]byte{0x12, 0x05, 0x08}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}
