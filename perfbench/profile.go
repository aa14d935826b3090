package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the packages host time is split over, plus the Go runtime.
// Time in any other package (the standard library, the benchmark itself)
// is "other".
var modules = []string{"sim", "rdma", "core", "codec", "ring", "broadcast", "mu",
	"heartbeat", "store", "spec", "crdt", "schema", "runtime", "other"}

// moduleOf names the module a function's self time belongs to.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "hamband/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range modules {
			if m == rest {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	return "other"
}

// addModuleSamples decodes a gzipped CPU profile and adds to byModule, per
// module, the samples whose innermost frame (inlined frames included) is
// in that module: its self time.
func addModuleSamples(byModule map[string]int64, profile []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.locs) > 0 {
			byModule[moduleOf(p.functions[p.leafFunc[s.locs[0]]])] += s.count
		}
	}
	return nil
}

// profile is the part of profile.proto the shares need.
type profile struct {
	samples   []sample
	leafFunc  map[uint64]uint64 // location id → innermost function id
	functions map[uint64]string // function id → name
}

type sample struct {
	locs  []uint64 // location ids, leaf first
	count int64    // first sample value: the number of samples
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6
	sampleLocs   = 1
	sampleValues = 2
	locationID   = 1
	locationLine = 4
	lineFunction = 1
	functionID   = 1
	functionName = 2
	wireVarint   = 0
	wireFixed64  = 1
	wireBytes    = 2
	wireFixed32  = 5
)

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcNames := map[uint64]uint64{} // function id → string index
	err := fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			var values []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocs:
					return packed(b, v, &s.locs)
				case sampleValues:
					return packed(b, v, &values)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					if seenLine {
						return nil // later lines are the callers it was inlined into
					}
					seenLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.leafFunc[id] = fn
		case profFunction:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNames {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case wireFixed64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case wireFixed32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// packed appends a repeated varint field, packed (b) or not (v).
func packed(b []byte, v uint64, out *[]uint64) error {
	if b == nil {
		*out = append(*out, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*out = append(*out, x)
		b = b[n:]
	}
	return nil
}
