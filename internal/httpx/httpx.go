// Package httpx is a small HTTP/1.1 implementation for the emulated
// internet. The standard net/http could not be reused as-is for this
// repository's purposes: the censor middlebox needs to parse and forge
// requests from raw netem streams, the C-Saw proxy needs to connect to one
// address while sending a different Host header (domain fronting, "IP as
// hostname"), and all timeouts must run on the virtual clock. The subset
// implemented — request/response codecs with Content-Length bodies,
// keep-alive, a dial-decoupled client, and a handler-based server — is what
// the paper's workloads exercise.
package httpx

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Header holds HTTP headers with case-insensitive keys (stored canonically).
type Header map[string][]string

// CanonicalKey normalizes a header name: "content-length" → "Content-Length".
// A key that is already canonical is returned as is, without allocating.
func CanonicalKey(k string) string {
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			return string(canonicalize([]byte(k)))
		}
		upper = c == '-'
	}
	return k
}

// canonicalize rewrites a header name in place to its canonical form.
func canonicalize(b []byte) []byte {
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
		upper = c == '-'
	}
	return b
}

// Set replaces the values for key.
func (h Header) Set(key, value string) { h[CanonicalKey(key)] = []string{value} }

// Add appends a value for key.
func (h Header) Add(key, value string) {
	k := CanonicalKey(key)
	h[k] = append(h[k], value)
}

// Get returns the first value for key, or "".
func (h Header) Get(key string) string {
	if vs := h[CanonicalKey(key)]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Del removes key.
func (h Header) Del(key string) { delete(h, CanonicalKey(key)) }

// clone deep-copies the header.
func (h Header) clone() Header {
	c := make(Header, len(h))
	for k, vs := range h {
		c[k] = append([]string(nil), vs...)
	}
	return c
}

// Request is an HTTP request. Target is the origin-form request target
// (path plus optional query), and Host the Host header value; a censor
// matches its URL blacklist against "Host + Target" (§2.1).
type Request struct {
	Method string
	Target string
	Proto  string
	Host   string
	Header Header
	Body   []byte

	// ctx is the request's lifetime: the server derives it from its own
	// run context, so handlers that issue upstream calls (the replica
	// forwarder, proxies) stop when the caller is gone instead of holding
	// resources for a client that hung up.
	ctx context.Context
}

// Context returns the request's context, never nil: requests built outside
// a server (tests, clients) default to context.Background().
func (r *Request) Context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// WithContext returns a shallow copy of r carrying ctx.
func (r *Request) WithContext(ctx context.Context) *Request {
	r2 := *r
	r2.ctx = ctx
	return &r2
}

// NewRequest builds a GET-style request with an initialized header.
func NewRequest(method, host, target string) *Request {
	if target == "" {
		target = "/"
	}
	return &Request{Method: method, Target: target, Proto: "HTTP/1.1", Host: host, Header: Header{}}
}

// URL returns the conventional "host/target" form used as a database key.
func (r *Request) URL() string { return r.Host + r.Target }

// Response is an HTTP response.
type Response struct {
	Proto      string
	StatusCode int
	Status     string
	Header     Header
	Body       []byte
}

// NewResponse builds a response with the given status and body, setting
// Content-Length.
func NewResponse(code int, body []byte) *Response {
	r := &Response{Proto: "HTTP/1.1", StatusCode: code, Status: StatusText(code), Header: Header{}}
	r.Header.Set("Content-Length", strconv.Itoa(len(body)))
	r.Body = body
	return r
}

// StatusText returns the reason phrase for the handful of codes in use.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 421:
		return "Misdirected Request"
	case 429:
		return "Too Many Requests"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// Codec errors.
var (
	ErrMalformed = errors.New("httpx: malformed message")
	ErrTooLarge  = errors.New("httpx: message too large")
)

// Limits protecting the parsers.
const (
	maxLineBytes   = 16 << 10
	maxHeaderCount = 128
	// MaxBodyBytes bounds bodies accepted by the codecs.
	MaxBodyBytes = 32 << 20
)

// WriteRequest serializes a request. The Host header is emitted from
// r.Host; Content-Length is set from the body. The head goes out in one
// Write and the body in a second; w must not retain either slice (the
// io.Writer contract), because the head's buffer is reused.
func WriteRequest(w io.Writer, r *Request) error {
	target := r.Target
	if target == "" {
		target = "/"
	}
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	bp := getHead()
	b := append(*bp, r.Method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, ' ')
	b = append(b, proto...)
	b = append(b, "\r\nHost: "...)
	b = append(b, r.Host...)
	b = append(b, "\r\n"...)
	b = appendHeaders(b, r.Header, len(r.Body), r.Method != "GET" && r.Method != "HEAD" || len(r.Body) > 0)
	return writeMessage(w, bp, b, r.Body)
}

// WriteResponse serializes a response, always emitting Content-Length. Like
// WriteRequest it issues one head Write and one body Write.
func WriteResponse(w io.Writer, r *Response) error {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := r.Status
	if status == "" {
		status = StatusText(r.StatusCode)
	}
	bp := getHead()
	b := append(*bp, proto...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, "\r\n"...)
	b = appendHeaders(b, r.Header, len(r.Body), true)
	return writeMessage(w, bp, b, r.Body)
}

// appendHeaders appends the header lines in key order, then Content-Length
// and the blank line that ends the head.
func appendHeaders(b []byte, h Header, bodyLen int, forceLen bool) []byte {
	var stack [16]string
	keys := stack[:0]
	for k := range h {
		if k == "Host" || k == "Content-Length" {
			continue
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range h[k] {
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	if forceLen || bodyLen > 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(bodyLen), 10)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// writeMessage writes the head, returns its buffer to the pool, then writes
// the body.
func writeMessage(w io.Writer, bp *[]byte, head, body []byte) error {
	_, err := w.Write(head)
	putHead(bp, head)
	if err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// ReadRequest parses one request from br. The returned request shares no
// memory with br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	p := getParser()
	defer putParser(p)
	line, err := p.readLine(br)
	if err != nil {
		return nil, err
	}
	// "METHOD SP target SP proto", where proto may itself hold spaces.
	method, rest, ok := bytes.Cut(line, space)
	target, proto, ok2 := bytes.Cut(rest, space)
	if !ok || !ok2 || !bytes.HasPrefix(proto, httpPrefix) {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	methodSpan, targetSpan, protoSpan := p.keep(method), p.keep(target), p.keep(proto)
	if err := p.readHeaders(br); err != nil {
		return nil, err
	}
	text := string(p.text)
	req := &Request{Method: methodSpan.in(text), Target: targetSpan.in(text), Proto: protoSpan.in(text)}
	req.Header, req.Host = p.header(text, true)
	req.Body, err = readBody(br, req.Header)
	return req, err
}

// ReadResponse parses one response from br. The returned response shares
// no memory with br.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	p := getParser()
	defer putParser(p)
	line, err := p.readLine(br)
	if err != nil {
		return nil, err
	}
	// "proto SP code [SP reason]", where the reason may hold spaces.
	proto, rest, ok := bytes.Cut(line, space)
	if !ok || !bytes.HasPrefix(proto, httpPrefix) {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	codeText, reason, _ := bytes.Cut(rest, space)
	code, err := strconv.Atoi(string(codeText))
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformed, codeText)
	}
	protoSpan, statusSpan := p.keep(proto), p.keep(reason)
	if err := p.readHeaders(br); err != nil {
		return nil, err
	}
	text := string(p.text)
	resp := &Response{Proto: protoSpan.in(text), StatusCode: code, Status: statusSpan.in(text)}
	resp.Header, _ = p.header(text, false)
	resp.Body, err = readBody(br, resp.Header)
	return resp, err
}

var (
	space      = []byte(" ")
	httpPrefix = []byte("HTTP/")
)

// headParser holds one message head while it is parsed. Lines are parsed
// in place in the bufio.Reader's buffer; what the message keeps (target,
// reason phrase, header names and values) is copied into text unless it is
// a token from the intern table, and text becomes a single string once the
// head is complete. Parsers are pooled, so nothing returned may alias them.
type headParser struct {
	line   []byte // a line that spans several bufio.Reader chunks
	text   []byte
	fields []field
}

// span is a kept token: an interned string, or text[start:end].
type span struct {
	interned   string
	start, end int
}

func (s span) in(text string) string {
	if s.interned != "" {
		return s.interned
	}
	return text[s.start:s.end]
}

type field struct{ key, val span }

// keep records b, which is only valid until the next read, as a span.
func (p *headParser) keep(b []byte) span {
	if s, ok := tokens[string(b)]; ok {
		return span{interned: s}
	}
	start := len(p.text)
	p.text = append(p.text, b...)
	return span{start: start, end: len(p.text)}
}

// keepKey is keep for a header name, which it stores canonically.
func (p *headParser) keepKey(b []byte) span {
	start := len(p.text)
	p.text = append(p.text, b...)
	key := canonicalize(p.text[start:])
	if s, ok := tokens[string(key)]; ok {
		p.text = p.text[:start]
		return span{interned: s}
	}
	return span{start: start, end: len(p.text)}
}

// readLine returns the next line without its line end. The slice is br's
// own buffer, valid until the next read, except for a line longer than
// that buffer, which is gathered into p.line.
func (p *headParser) readLine(br *bufio.Reader) ([]byte, error) {
	chunk, isPrefix, err := br.ReadLine()
	if err != nil {
		return nil, err
	}
	if !isPrefix {
		if len(chunk) > maxLineBytes {
			return nil, ErrTooLarge
		}
		return chunk, nil
	}
	p.line = append(p.line[:0], chunk...)
	for {
		if len(p.line) > maxLineBytes {
			return nil, ErrTooLarge
		}
		if !isPrefix {
			return p.line, nil
		}
		chunk, isPrefix, err = br.ReadLine()
		if err != nil {
			return nil, err
		}
		p.line = append(p.line, chunk...)
	}
}

func (p *headParser) readHeaders(br *bufio.Reader) error {
	for count := 0; ; count++ {
		if count > maxHeaderCount {
			return ErrTooLarge
		}
		line, err := p.readLine(br)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			return nil
		}
		i := bytes.IndexByte(line, ':')
		if i <= 0 {
			return fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		key := bytes.TrimSpace(line[:i])
		if len(key) == 0 {
			// A whitespace-only key would serialize as ": v", which no
			// parser (ours included) reads back.
			return fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		p.fields = append(p.fields, field{key: p.keepKey(key), val: p.keep(bytes.TrimSpace(line[i+1:]))})
	}
}

// header builds the parsed header map. Each key's first value is carved
// from one backing array with its capacity capped, so a later Add appends
// into a fresh array instead of over a neighbour. When skipHost is set the
// Host fields are left out and the first one's value is returned.
func (p *headParser) header(text string, skipHost bool) (h Header, host string) {
	h = make(Header, len(p.fields))
	vals := make([]string, len(p.fields))
	seenHost := false
	for i, f := range p.fields {
		k, v := f.key.in(text), f.val.in(text)
		if skipHost && k == "Host" {
			if !seenHost {
				host, seenHost = v, true
			}
			continue
		}
		if vs, ok := h[k]; ok {
			h[k] = append(vs, v)
			continue
		}
		vals[i] = v
		h[k] = vals[i : i+1 : i+1]
	}
	return h, host
}

func readBody(br *bufio.Reader, h Header) ([]byte, error) {
	cl := h.Get("Content-Length")
	if cl == "" {
		return nil, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, cl)
	}
	if n > MaxBodyBytes {
		return nil, ErrTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// tokens interns the strings that recur in nearly every message the
// simulation exchanges: methods, protocol versions, common header names
// (canonical) and values, and the reason phrases its servers send (a 304
// goes out as StatusText's "Status 304"). A parsed token found here costs
// no allocation.
var tokens = func() map[string]string {
	m := make(map[string]string)
	for _, s := range []string{
		"GET", "HEAD", "POST", "HTTP/1.0", "HTTP/1.1",
		"Host", "Connection", "Content-Length", "Content-Type", "Location",
		"User-Agent", "Accept", "Etag", "If-None-Match",
		"close", "0", "text/html", "application/json", "application/octet-stream",
	} {
		m[s] = s
	}
	for _, code := range []int{200, 204, 301, 302, 304, 400, 403, 404, 421, 429, 500, 502, 503} {
		s := StatusText(code)
		m[s] = s
	}
	return m
}()
