package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file is a minimal reader for the gzipped profile.proto that
// runtime/pprof writes, and the rule that charges its samples to layers.
// It decodes only the fields the rule needs: samples (location ids,
// values, labels), locations (their line entries, innermost first) and
// function names.

type pprofSample struct {
	locs   []uint64
	value  int64 // first sample value: the sample count of a CPU profile
	labels map[string]string
}

type pprofProfile struct {
	samples []pprofSample
	// frames maps a location id to its function names, innermost inlined
	// frame first.
	frames map[uint64][]string
}

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(data []byte) (*pprofProfile, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		rawSample [][]byte
		locLines  = map[uint64][]uint64{} // location -> function ids
		funcName  = map[uint64]int64{}    // function -> string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			rawSample = append(rawSample, b)
		case num == 4 && wire == 2:
			return parseLocation(b, locLines)
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case num == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &pprofProfile{frames: make(map[uint64][]string, len(locLines))}
	for loc, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.frames[loc] = names
	}
	for _, b := range rawSample {
		s := pprofSample{}
		var values []uint64
		err := eachField(b, func(num, wire int, v uint64, b []byte) error {
			switch {
			case num == 1:
				return appendVarints(&s.locs, wire, v, b)
			case num == 2:
				return appendVarints(&values, wire, v, b)
			case num == 3 && wire == 2:
				var key, val int64
				err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
					switch num {
					case 1:
						key = int64(v)
					case 2:
						val = int64(v)
					}
					return nil
				})
				if s.labels == nil {
					s.labels = map[string]string{}
				}
				s.labels[str(key)] = str(val)
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(values) > 0 {
			s.value = int64(values[0])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// parseLocation records a Location's function ids in line order, which
// profile.proto defines as innermost inlined function first.
func parseLocation(b []byte, out map[uint64][]uint64) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num, wire int, v uint64, b []byte) error {
		switch {
		case num == 1:
			id = v
		case num == 4 && wire == 2:
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	out[id] = fns
	return err
}

// appendVarints appends a repeated varint field in either its packed
// (length-delimited) or unpacked encoding.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks the top-level fields of a protobuf message, calling fn
// with the field number, wire type, and the varint value (wire type 0) or
// payload (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Buckets a sample can be charged to besides the guvm layers.
const (
	bucketGC    = "runtime.gc"
	bucketOther = "runtime.other"
)

// attribution is a profile's samples charged to layers.
type attribution struct {
	Total  int64            // samples counted (harness-labelled ones excluded)
	Layers map[string]int64 // layer or bucket -> samples
	Alloc  int64            // samples whose leaf frame is the runtime allocator
}

// attribute charges each sample to the innermost frame, inlined frames
// included, whose function is in a catalogued guvm package. A sample with
// no such frame goes to runtime.gc when a GC worker frame is on its stack
// and to runtime.other otherwise. Samples labelled bench=harness (the
// harness's own checking work between ops) are skipped.
func attribute(p *pprofProfile) attribution {
	a := attribution{Layers: map[string]int64{}}
	known := map[string]bool{}
	for _, l := range selfLayers {
		known[l] = true
	}
	for _, s := range p.samples {
		if s.labels["bench"] == "harness" {
			continue
		}
		a.Total += s.value
		layer, gc, leaf := "", false, true
		for _, loc := range s.locs {
			for _, fn := range p.frames[loc] {
				if leaf {
					if isAllocator(fn) {
						a.Alloc += s.value
					}
					leaf = false
				}
				if l := guvmLayer(fn); known[l] && layer == "" {
					layer = l
				}
				gc = gc || isGCWorker(fn)
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = bucketGC
		default:
			layer = bucketOther
		}
		a.Layers[layer] += s.value
	}
	return a
}

// share returns a bucket's fraction of the counted samples.
func (a attribution) share(layer string) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Layers[layer]) / float64(a.Total)
}

// guvmLayer returns the layer of a guvm function ("sim" for
// guvm/internal/sim, "guvm" for the root package), or "" for a function
// outside the guvm module's library packages.
func guvmLayer(fn string) string {
	pkg := funcPackage(fn)
	if pkg == "guvm" {
		return "guvm"
	}
	if !strings.HasPrefix(pkg, "guvm/") {
		return ""
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// funcPackage returns the import path of a symbol name such as
// "guvm/internal/mem.(*BlockDir[go.shape.*uint8]).Get". Type arguments
// may themselves contain slashes, so the path is cut at the first '.'
// after the last '/' that precedes any '(' or '['.
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isGCWorker(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return false
}

// allocatorFuncs are the name prefixes of the runtime functions on the
// heap allocator's fast and slow paths. Helpers the allocator shares with
// other callers, such as memclrNoHeapPointers, are left out.
var allocatorFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.nextFreeFast",
	"runtime.(*mcache).", "runtime.(*mcentral).", "runtime.(*mheap).alloc",
	"runtime.(*mspan).nextFreeIndex", "runtime.(*mspan).writeHeapBits",
	"runtime.heapSetType", "runtime.heapBitsSetType",
}

func isAllocator(fn string) bool {
	for _, p := range allocatorFuncs {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
