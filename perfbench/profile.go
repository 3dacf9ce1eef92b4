package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A reader for the parts of a runtime/pprof CPU profile the layer ledger
// needs: each sample's stack (as function names, leaf first), its CPU
// nanoseconds and its labels. The profile is a gzipped profile.proto
// message; only the standard library is available, so the few fields
// used are decoded by hand.

type profSample struct {
	frames []string
	cpuNs  int64
	labels map[string]string
}

// Field numbers from profile.proto.
const (
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fSampleLocationID = 1
	fSampleValue      = 2
	fSampleLabel      = 3

	fLabelKey = 1
	fLabelStr = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunctionID = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> name index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocationID:
					s.locs = appendVarints(s.locs, wire, v, b)
				case fSampleValue:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				case fSampleLabel:
					var kv [2]int64
					if err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						switch num {
						case fLabelKey:
							kv[0] = int64(v)
						case fLabelStr:
							kv[1] = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, _ int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						if num == fLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case fProfileStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{cpuNs: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.frames = append(ps.frames, str(funcName[fn]))
			}
		}
		if len(s.labels) > 0 {
			ps.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				ps.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
func eachField(msg []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
