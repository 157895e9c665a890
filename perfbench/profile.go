package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// This file decodes the parts of a runtime/pprof CPU profile (gzipped
// profile.proto) that attribution needs: each sample's stack, with inlined
// frames expanded, and its CPU time. The field numbers are those of
// github.com/google/pprof/proto/profile.proto.

// frame is one function in a sampled stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file as recorded by the compiler
}

// stack is one profile record: frames innermost first, how many samples
// hit this stack, and their CPU time.
type stack struct {
	frames []frame
	count  int64
	nanos  int64
}

func readProfile(path string) ([]stack, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	stacks, err := parseProfile(b)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return stacks, nil
}

func parseProfile(b []byte) ([]stack, error) {
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locs        = map[uint64][]uint64{}  // location id -> function ids, innermost first
		funcs       = map[uint64][2]uint64{} // function id -> name, file string indexes
	)
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, d)
				case 2:
					var u []uint64
					err := appendVarints(&u, v, d)
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f [2]uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f[0] = v
				case 4:
					f[1] = v
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	count, cpu := -1, -1
	for i, t := range sampleTypes {
		switch str(t) {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("not a CPU profile: no samples and cpu values")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if count >= len(s.vals) || cpu >= len(s.vals) {
			return nil, errors.New("sample without samples and cpu values")
		}
		st := stack{count: s.vals[count], nanos: s.vals[cpu]}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				st.frames = append(st.frames, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField calls fn for every field of the protobuf message b: v is the
// value of a varint field, data the payload of a length-delimited one.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("malformed field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("malformed varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("malformed length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value v when
// the field was sent unpacked (data nil), else every varint packed in data.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("malformed packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
