package httpx

import (
	"bufio"
	"io"
	"sync"
)

// readerPool recycles parse buffers. The simulation opens one connection per
// HTTP exchange (Connection: close semantics keep censor stream state per
// request), so the 4 KiB bufio.Reader behind every parse is among the
// largest allocations on the serve path; recycling it is a measurable GC
// win at fleet scale. ReadRequest/ReadResponse copy everything they return,
// so a released reader never aliases parsed data.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// GetReader returns a pooled bufio.Reader reading from r.
func GetReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader returns br to the pool. Release only a reader this goroutine is
// the sole referent of — never one handed to a splice or copy goroutine —
// and do not touch it afterwards.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// maxPooledBytes caps the buffers the pools keep, so one oversized message
// does not pin its buffer for the rest of the run.
const maxPooledBytes = 64 << 10

// headPool recycles the buffers message heads are built in. A head is
// handed to exactly one Write and released when it returns; every writer
// under the codec (netem.Conn, tlsx.Conn, bytes.Buffer) copies what it
// keeps, as io.Writer requires.
var headPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

func getHead() *[]byte { return headPool.Get().(*[]byte) }

// putHead releases bp, whose buffer head now occupies.
func putHead(bp *[]byte, head []byte) {
	if cap(head) > maxPooledBytes {
		return
	}
	*bp = head[:0]
	headPool.Put(bp)
}

var parserPool = sync.Pool{New: func() any { return new(headParser) }}

func getParser() *headParser { return parserPool.Get().(*headParser) }

// putParser releases p. Parsed messages never alias it: their strings come
// from the single string made of p.text.
func putParser(p *headParser) {
	if cap(p.line) > maxPooledBytes || cap(p.text) > maxPooledBytes {
		return
	}
	p.line, p.text = p.line[:0], p.text[:0]
	clear(p.fields)
	p.fields = p.fields[:0]
	parserPool.Put(p)
}
