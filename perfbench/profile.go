package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// repoPrefix is the import-path prefix of the engine's layers.
const repoPrefix = "ginflow/internal/"

// runtimeLayer collects samples with no repo frame on their stack.
const runtimeLayer = "runtime"

// stackSample is one CPU-profile sample: function names innermost
// first, and the CPU time it stands for.
type stackSample struct {
	funcs []string
	nanos int64
}

// cpuSplit is a CPU profile attributed to the repo's layers.
type cpuSplit struct {
	// self maps a layer to the CPU seconds of samples whose innermost
	// repo frame is in it; samples with no repo frame go to "runtime".
	self map[string]float64
	// parse and reduce split the hocl layer's self time: parse is the
	// samples whose stack passes through the HOCL parser or one of its
	// compilers (pattern, guard, product); reduce those that pass
	// through (*Engine).Reduce and not through a parser or compiler
	// (rules compile lazily on first use inside Reduce, and that cost
	// is compilation). Work a reduction calls out to (a service
	// invocation's clock sleep, a send's publish) is its own layer's.
	parse, reduce float64
	total         float64
}

// layerOf returns the repo layer a function belongs to ("cluster" for
// "ginflow/internal/cluster.(*vsched).sleep"), or "" outside the repo's
// internal packages.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// isHOCLCompile reports whether fn is the HOCL parser, lexer or one of
// the pattern / expression compilers.
func isHOCLCompile(fn string) bool {
	name, ok := strings.CutPrefix(fn, repoPrefix+"hocl.")
	if !ok {
		return false
	}
	for _, p := range []string{"Parse", "MustParse", "(*parser)", "(*lexer)", "newLexer", "newParser", "compile"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

const hoclReduce = repoPrefix + "hocl.(*Engine).Reduce"

// attribute charges each sample to the innermost repo frame on its
// stack: work the Go runtime does on a layer's behalf (allocation,
// runtime.Stack) is that layer's cost.
func attribute(samples []stackSample) cpuSplit {
	c := cpuSplit{self: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		c.total += sec
		layer := runtimeLayer
		for _, fn := range s.funcs {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		c.self[layer] += sec
		if layer != "hocl" {
			continue
		}
		parse, reduce := false, false
		for _, fn := range s.funcs {
			parse = parse || isHOCLCompile(fn)
			reduce = reduce || fn == hoclReduce
		}
		switch {
		case parse:
			c.parse += sec
		case reduce:
			c.reduce += sec
		}
	}
	return c
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof writes, returning each sample's stack and CPU
// nanoseconds. It reads only the fields attribution needs: samples,
// locations (with their inlined lines), functions and the string table.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sampleRec
		locLines  = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcNames = map[uint64]int64{}    // function -> string index
		strs      []string
		valueIdx  = -1 // index of the cpu/nanoseconds value
		types     []int64
	)
	err = walkProto(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			err := walkProto(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			types = append(types, typ)
			return err
		case 2: // sample
			var s sampleRec
			err := walkProto(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
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
			err := walkProto(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkProto(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkProto(b, func(f, _ int, v uint64, _ []byte) error {
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
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		st := stackSample{nanos: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// walkProto calls fn for each field of a protobuf message: varints pass
// v, length-delimited fields pass b. Fixed-width fields are skipped.
func walkProto(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
