package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// repoLayers are the repo's modules the traced run attributes cost to, in
// report order.
var repoLayers = []string{
	"vtime", "netem", "dnsx", "httpx", "tlsx", "censor", "blockpage", "detect", "localdb", "core",
	"web", "proxynet", "lantern", "tor", "globaldb", "storage", "replica", "trace", "fleet", "worldgen",
}

// layers adds two buckets for stacks without a repo frame: runtime (GC
// workers, the scheduler) and other (standard-library goroutines, the
// benchmark itself).
var layers = append(append([]string{}, repoLayers...), "runtime", "other")

const repoPrefix = "csaw/internal/"

// cost is one layer's share of a profile: CPU nanoseconds, or allocated
// objects and bytes.
type cost struct{ A, B float64 }

// funcPackage returns the import path of a symbolized function name such
// as "csaw/internal/netem.(*pipe).Write" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// repoLayer maps a package to its layer: the first element under
// csaw/internal/, except that the global DB's storage and replica
// subpackages are layers of their own. ok is false outside the repo's
// layers.
func repoLayer(pkg string) (string, bool) {
	rest, found := strings.CutPrefix(pkg, repoPrefix)
	if !found {
		return "", false
	}
	if sub, isGDB := strings.CutPrefix(rest, "globaldb/"); isGDB {
		rest = sub
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range repoLayers {
		if l == rest {
			return l, true
		}
	}
	return "", false
}

// attribute names the layer a stack (leaf first) is charged to: the
// innermost frame in one of the repo's layers, so standard-library and
// runtime work a layer causes (allocation, hashing, encoding) counts as
// that layer's own cost. Stacks without a repo frame go to runtime when
// their leaf is in the runtime, else to other.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l, ok := repoLayer(funcPackage(fn)); ok {
			return l
		}
	}
	if len(stack) > 0 && strings.HasPrefix(funcPackage(stack[0]), "runtime") {
		return "runtime"
	}
	return "other"
}

// attributeProfile reduces a gzipped pprof profile to per-layer totals of
// two sample values, named by their sample types.
func attributeProfile(raw []byte, typeA, typeB string) (map[string]cost, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	ia, ib := p.valueIndex(typeA), p.valueIndex(typeB)
	if ia < 0 || ib < 0 {
		return nil, fmt.Errorf("profile lacks sample types %q/%q", typeA, typeB)
	}
	out := make(map[string]cost)
	for _, s := range p.samples {
		if len(s.values) <= max(ia, ib) {
			return nil, errTruncated
		}
		l := attribute(p.stack(s))
		c := out[l]
		c.A += float64(s.values[ia])
		c.B += float64(s.values[ib])
		out[l] = c
	}
	return out, nil
}

// profiler holds a traced phase's CPU profile and the allocation profile
// snapshot taken before it.
type profiler struct {
	cpu    bytes.Buffer
	before map[string]cost
}

func startProfiler() (*profiler, error) {
	p := &profiler{}
	var err error
	if p.before, err = allocSnapshot(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the CPU profile and returns the phase's per-layer CPU
// nanoseconds and allocated objects/bytes.
func (p *profiler) stop() (cpu, alloc map[string]cost, err error) {
	pprof.StopCPUProfile()
	if cpu, err = attributeProfile(p.cpu.Bytes(), "samples", "cpu"); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	after, err := allocSnapshot()
	if err != nil {
		return nil, nil, err
	}
	alloc = make(map[string]cost, len(after))
	for l, c := range after {
		alloc[l] = cost{c.A - p.before[l].A, c.B - p.before[l].B}
	}
	return cpu, alloc, nil
}

// allocSnapshot attributes the cumulative allocation profile. The runtime
// publishes allocations to it at the end of a GC cycle, hence the GC.
func allocSnapshot() (map[string]cost, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	c, err := attributeProfile(buf.Bytes(), "alloc_objects", "alloc_space")
	if err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	return c, nil
}

// profile is the part of a pprof profile (profile.proto) the reduction
// needs: sample types, samples, and symbolized locations.
type profile struct {
	types     []int64 // sample type name, as a string-table index
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) valueIndex(name string) int {
	for i, t := range p.types {
		if t >= 0 && int(t) < len(p.strings) && p.strings[t] == name {
			return i
		}
	}
	return -1
}

// stack returns a sample's function names, leaf first, with inlined
// frames in place.
func (p *profile) stack(s sample) []string {
	var out []string
	for _, id := range s.locs {
		for _, fid := range p.locations[id] {
			if n := p.functions[fid]; n >= 0 && int(n) < len(p.strings) {
				out = append(out, p.strings[n])
			}
		}
	}
	return out
}

var errTruncated = errors.New("profile: truncated protobuf")

// parseProfile decodes a gzipped (or raw) profile.proto message.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					p.types = append(p.types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
