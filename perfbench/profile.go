package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile written by runtime/pprof is a gzipped profile.proto
// message. Folding it by package needs only the samples, their
// location stacks, and function names, so this file decodes exactly
// those fields with a minimal protobuf reader instead of pulling in a
// profile library.

// profile is the decoded subset of a CPU profile: every sample's stack
// as function names, innermost first, with its CPU nanoseconds.
type profile struct {
	stacks [][]string
	nanos  []int64
}

// decodeProfile parses a gzipped pprof CPU profile.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []sample
		sampleTypes []int64                 // string index of each value's type
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id → string index
		strs        []string
	)
	err = forFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return forFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// CPU profiles carry (samples/count, cpu/nanoseconds) values.
	cpu := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	name := func(fn uint64) string {
		i, ok := funcNames[fn]
		if !ok || i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	p := &profile{}
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				stack = append(stack, name(fn))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, s.values[cpu])
	}
	return p, nil
}

// forFields calls fn for every field of a protobuf message: varint
// fields get their value, length-delimited fields their bytes.
func forFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, payload); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive either
// unpacked (one varint) or packed (a length-delimited run of varints).
func appendPacked(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Layer buckets of the CPU fold. Every sample lands in exactly one, so
// the shares sum to 100%.
const (
	bucketGC      = "runtime.gc"
	bucketMalloc  = "runtime.malloc"
	bucketMaps    = "runtime.maps"
	bucketRTOther = "runtime.other"
	bucketOther   = "other"
)

// layerOf maps the repository's packages to benchmark layers. proto
// (the DirCtrl) belongs to the directory layer, msg to the link layer,
// trace to the workload layer that builds traces.
var layerOf = map[string]string{
	"hmg/internal/engine":      "engine",
	"hmg/internal/gsim":        "gsim",
	"hmg/internal/cache":       "cache",
	"hmg/internal/directory":   "directory",
	"hmg/internal/proto":       "directory",
	"hmg/internal/proto/spec":  "directory",
	"hmg/internal/link":        "link",
	"hmg/internal/msg":         "link",
	"hmg/internal/memory":      "memory",
	"hmg/internal/workload":    "workload",
	"hmg/internal/trace":       "workload",
	"hmg/internal/experiments": "experiments",
	"hmg/internal/resstore":    "resstore",
	"hmg/internal/report":      "report",
}

// cpuBuckets lists every bucket the fold can produce, in report order.
var cpuBuckets = []string{
	"engine", "gsim", "cache", "directory", "link", "memory", "workload",
	"experiments", "resstore", "report",
	bucketGC, bucketMalloc, bucketMaps, bucketRTOther, bucketOther,
}

// fold charges each sample's CPU time to one bucket:
//
//   - GC work anywhere on the stack (background marking, assists,
//     sweeping) is runtime.gc;
//   - otherwise an allocation on the stack is runtime.malloc;
//   - otherwise map operations are runtime.maps;
//   - otherwise the innermost frame of one of the repository's packages
//     names the layer, so standard-library work (math/rand under trace
//     generation, sha256 under the store) is charged to the layer that
//     asked for it;
//   - runtime work with no repository frame above it (scheduler,
//     profiler) is runtime.other, and anything else (topo, stats, the
//     benchmark itself) is other.
func fold(p *profile) map[string]int64 {
	out := make(map[string]int64, len(cpuBuckets))
	for i, stack := range p.stacks {
		out[classify(stack)] += p.nanos[i]
	}
	return out
}

func classify(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return bucketMalloc
		}
	}
	for _, fn := range stack {
		if isMap(fn) {
			return bucketMaps
		}
	}
	sawRuntime := false
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if layer, ok := layerOf[pkg]; ok {
			return layer
		}
		if strings.HasPrefix(pkg, "hmg/") || pkg == "main" {
			return bucketOther
		}
		if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
			sawRuntime = true
		}
	}
	if sawRuntime {
		return bucketRTOther
	}
	return bucketOther
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.deductSweepCredit", "runtime.(*sweepLocked).sweep",
		"runtime.markroot", "runtime.scanobject", "runtime.scanstack":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

func isMap(fn string) bool {
	return strings.HasPrefix(fn, "runtime.map") ||
		strings.HasPrefix(fn, "internal/runtime/maps.") ||
		strings.HasPrefix(fn, "runtime.memhash") ||
		strings.HasPrefix(fn, "runtime.aeshash")
}

// pkgOf returns the import path of a symbol such as
// "hmg/internal/gsim.(*System).Run" or "math/rand.(*Rand).Int63".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cumulative returns the CPU nanoseconds of samples with fn anywhere on
// their stack.
func cumulative(p *profile, fn string) int64 {
	var ns int64
	for i, stack := range p.stacks {
		for _, f := range stack {
			if f == fn {
				ns += p.nanos[i]
				break
			}
		}
	}
	return ns
}
