package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// wireCase is one message the golden table serializes.
type wireCase struct {
	name string
	req  *Request
	resp *Response
}

func wireCases() []wireCase {
	multi := NewRequest("GET", "www.youtube.com", "/watch?v=abc")
	multi.Header.Set("User-Agent", "csaw/1.0")
	multi.Header.Add("Accept", "text/html")
	multi.Header.Add("Accept", "image/png")
	multi.Header.Set("Connection", "close")

	post := NewRequest("POST", "api.example.com", "/submit")
	post.Header.Set("Content-Type", "application/json")
	post.Body = []byte(`{"vote":1}`)

	emptyPost := NewRequest("POST", "api.example.com", "/ping")

	head := NewRequest("HEAD", "news.example.pk", "/")
	head.Header.Set("Connection", "close")

	defaults := &Request{Method: "GET", Host: "example.com", Header: Header{
		"Host":           {"ignored.example"},
		"Content-Length": {"99"},
		"X-Trace":        {"a", "b"},
	}}

	cond := NewRequest("GET", "globaldb.example", "/blocked?as=17557")
	cond.Header.Set("If-None-Match", `"v12-3"`)
	cond.Header.Set("Connection", "close")

	ok := NewResponse(200, []byte("<html>hi</html>"))
	ok.Header.Set("Content-Type", "text/html")
	ok.Header.Add("Set-Cookie", "a=1")
	ok.Header.Add("Set-Cookie", "b=2")

	emptyStatus := &Response{StatusCode: 204, Header: Header{}}
	unknownStatus := &Response{Proto: "HTTP/1.0", StatusCode: 418, Header: Header{}, Body: []byte("teapot")}

	tagged := NewResponse(200, []byte(`[{"url":"x"}]`))
	tagged.Header.Set("ETag", `"v12-3"`)
	tagged.Header.Set("Content-Type", "application/json")

	notModified := NewResponse(304, nil)
	notModified.Status = "Not Modified"
	notModified.Header.Set("ETag", `"v12-3"`)

	return []wireCase{
		{name: "get-multi-value", req: multi},
		{name: "post-body", req: post},
		{name: "post-empty", req: emptyPost},
		{name: "head", req: head},
		{name: "defaults-skip-host-length", req: defaults},
		{name: "if-none-match", req: cond},
		{name: "ok-multi-value", resp: ok},
		{name: "empty-status", resp: emptyStatus},
		{name: "unknown-status", resp: unknownStatus},
		{name: "etag", resp: tagged},
		{name: "not-modified", resp: notModified},
	}
}

// goldenWire holds the exact bytes each wireCase serializes to. The
// strings were captured from the fmt-based codec this one replaced; the
// wire format is part of what censors and servers parse, so it must not
// drift.
var goldenWire = map[string]string{
	"get-multi-value":           "GET /watch?v=abc HTTP/1.1\r\nHost: www.youtube.com\r\nAccept: text/html\r\nAccept: image/png\r\nConnection: close\r\nUser-Agent: csaw/1.0\r\n\r\n",
	"post-body":                 "POST /submit HTTP/1.1\r\nHost: api.example.com\r\nContent-Type: application/json\r\nContent-Length: 10\r\n\r\n{\"vote\":1}",
	"post-empty":                "POST /ping HTTP/1.1\r\nHost: api.example.com\r\nContent-Length: 0\r\n\r\n",
	"head":                      "HEAD / HTTP/1.1\r\nHost: news.example.pk\r\nConnection: close\r\n\r\n",
	"defaults-skip-host-length": "GET / HTTP/1.1\r\nHost: example.com\r\nX-Trace: a\r\nX-Trace: b\r\n\r\n",
	"if-none-match":             "GET /blocked?as=17557 HTTP/1.1\r\nHost: globaldb.example\r\nConnection: close\r\nIf-None-Match: \"v12-3\"\r\n\r\n",
	"ok-multi-value":            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nSet-Cookie: a=1\r\nSet-Cookie: b=2\r\nContent-Length: 15\r\n\r\n<html>hi</html>",
	"empty-status":              "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
	"unknown-status":            "HTTP/1.0 418 Status 418\r\nContent-Length: 6\r\n\r\nteapot",
	"etag":                      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nEtag: \"v12-3\"\r\nContent-Length: 13\r\n\r\n[{\"url\":\"x\"}]",
	"not-modified":              "HTTP/1.1 304 Not Modified\r\nEtag: \"v12-3\"\r\nContent-Length: 0\r\n\r\n",
}

// writeCase serializes c into a fresh buffer.
func writeCase(t *testing.T, c wireCase) string {
	t.Helper()
	var b bytes.Buffer
	var err error
	if c.req != nil {
		err = WriteRequest(&b, c.req)
	} else {
		err = WriteResponse(&b, c.resp)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return b.String()
}

func TestWireGolden(t *testing.T) {
	cases := wireCases()
	if len(cases) != len(goldenWire) {
		t.Fatalf("%d cases, %d golden entries", len(cases), len(goldenWire))
	}
	for _, c := range cases {
		if got, want := writeCase(t, c), goldenWire[c.name]; got != want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, want)
		}
	}
}

// TestWireGoldenReparse: every golden message parses back and
// re-serializes to the same bytes, so the parser agrees with the writer on
// the whole table.
func TestWireGoldenReparse(t *testing.T) {
	for _, c := range wireCases() {
		want := goldenWire[c.name]
		br := bufio.NewReader(strings.NewReader(want))
		var again wireCase
		var err error
		if c.req != nil {
			again.req, err = ReadRequest(br)
		} else {
			again.resp, err = ReadResponse(br)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := writeCase(t, again); got != want {
			t.Errorf("%s reparsed:\n got %q\nwant %q", c.name, got, want)
		}
	}
}

// shortWriter records each Write call's bytes.
type shortWriter struct{ writes []string }

func (w *shortWriter) Write(b []byte) (int, error) {
	w.writes = append(w.writes, string(b))
	return len(b), nil
}

// TestWireTwoWrites: a message goes out as one head Write and, when there
// is a body, one body Write — netem turns each Write into one segment.
func TestWireTwoWrites(t *testing.T) {
	for _, c := range wireCases() {
		var w shortWriter
		var body []byte
		if c.req != nil {
			_ = WriteRequest(&w, c.req)
			body = c.req.Body
		} else {
			_ = WriteResponse(&w, c.resp)
			body = c.resp.Body
		}
		want := 1
		if len(body) > 0 {
			want = 2
		}
		if len(w.writes) != want || strings.Join(w.writes, "") != goldenWire[c.name] {
			t.Errorf("%s: writes %q, want %d adding up to the golden bytes", c.name, w.writes, want)
		}
	}
}

// TestParsedMessagesDoNotAlias: parsed strings survive the reader and the
// parser being reused for the next message.
func TestParsedMessagesDoNotAlias(t *testing.T) {
	raw := "HTTP/1.1 200 Fine Thanks\r\nX-One: first\r\nX-Two: second\r\nContent-Length: 2\r\n\r\nab" +
		"HTTP/1.1 404 Nope\r\nX-One: zzzzz\r\nX-Two: yyyyyy\r\nContent-Length: 2\r\n\r\ncd"
	br := bufio.NewReader(strings.NewReader(raw))
	first, err := ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponse(br); err != nil {
		t.Fatal(err)
	}
	if first.Status != "Fine Thanks" || first.Header.Get("X-One") != "first" ||
		first.Header.Get("X-Two") != "second" || string(first.Body) != "ab" {
		t.Fatalf("first response changed after the second parse: %+v", first)
	}
	// A value added later must not overwrite the neighbouring key's value
	// in the shared backing array.
	first.Header.Add("X-One", "extra")
	if first.Header.Get("X-Two") != "second" {
		t.Fatalf("Add clobbered a neighbour: %v", first.Header)
	}
}

func TestCanonicalKeyForms(t *testing.T) {
	for in, want := range map[string]string{
		"content-length": "Content-Length",
		"CONTENT-LENGTH": "Content-Length",
		"Content-Length": "Content-Length",
		"etag":           "Etag",
		"x-csaw-term":    "X-Csaw-Term",
		"a--b":           "A--B",
		"":               "",
		"-x":             "-X",
	} {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// keySink keeps CanonicalKey's result escaping, as it does in a Header.
var keySink string

func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	req := NewRequest("GET", "www.youtube.com", "/watch?v=abc")
	req.Header.Set("User-Agent", "csaw/1.0")
	req.Header.Set("Connection", "close")
	resp := NewResponse(200, []byte("<html>hello</html>"))
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("Etag", `"v1"`)
	var raw bytes.Buffer
	if err := WriteResponse(&raw, resp); err != nil {
		t.Fatal(err)
	}
	wire := raw.Bytes()
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	key := strings.Clone("X-Csaw-Leader")

	budgets := []struct {
		name string
		max  float64
		f    func()
	}{
		{"WriteRequest to io.Discard", 0, func() { _ = WriteRequest(io.Discard, req) }},
		{"WriteResponse to io.Discard", 0, func() { _ = WriteResponse(io.Discard, resp) }},
		{"CanonicalKey on a canonical key", 0, func() { keySink = CanonicalKey(key) }},
		// Response, header map (two objects), value array, the kept-text
		// string and the body.
		{"ReadResponse with 3 headers and a body", 6, func() {
			rd.Reset(wire)
			br.Reset(rd)
			if _, err := ReadResponse(br); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, b := range budgets {
		if got := testing.AllocsPerRun(100, b.f); got > b.max {
			t.Errorf("%s: %.1f allocs, budget %.0f", b.name, got, b.max)
		}
	}
}

// TestReadLineEdges pins the line reader's limits and line-end handling;
// the same inputs are fuzz seeds under testdata/fuzz.
func TestReadLineEdges(t *testing.T) {
	long := func(n int) string { return "X-Long: " + strings.Repeat("v", n-len("X-Long: ")) }
	cases := []struct {
		name, raw string
		wantErr   error // nil: must parse
		header    string
		status    int
	}{
		{"line longer than the reader", "HTTP/1.1 200 OK\r\n" + long(5000) + "\r\nContent-Length: 0\r\n\r\n", nil, "X-Long", 200},
		{"line at maxLineBytes", "HTTP/1.1 200 OK\r\n" + long(maxLineBytes) + "\r\n\r\n", nil, "X-Long", 200},
		{"line one byte over", "HTTP/1.1 200 OK\r\n" + long(maxLineBytes+1) + "\r\n\r\n", ErrTooLarge, "", 0},
		{"bare LF line ends", "HTTP/1.1 200 OK\nX-A: 1\n\n", nil, "X-A", 200},
		{"EOF without final CRLF", "HTTP/1.1 200 OK\r\nX-A: 1", io.EOF, "", 0},
		{"plus-signed status", "HTTP/1.1 +200 OK\r\n\r\n", nil, "", 200},
		{"minus-signed status", "HTTP/1.1 -200 OK\r\n\r\n", ErrMalformed, "", 0},
	}
	for _, c := range cases {
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(c.raw)))
		if c.wantErr != nil {
			if !errors.Is(err, c.wantErr) {
				t.Errorf("%s: err = %v, want %v", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if resp.StatusCode != c.status || c.header != "" && resp.Header.Get(c.header) == "" {
			t.Errorf("%s: parsed %+v", c.name, resp)
		}
	}
}
