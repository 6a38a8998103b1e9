package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile covers the layers with no exported seam. It is a
// gzipped profile.proto message; this file decodes just enough of it
// (samples, locations, functions, strings) to attribute CPU time. The
// same file reads with `go tool pprof -top`.

const modulePrefix = "fibbing.net/fibbing/internal/"

// profileLayers maps repository packages to the layer whose cpu_ms they
// count towards. snmp is the monitor's polling transport.
var profileLayers = map[string]string{
	"te": "te", "fibbing": "fibbing", "spf": "spf", "ospf": "ospf", "bfd": "bfd",
	"netsim": "netsim", "video": "video", "qoe": "qoe", "monitor": "monitor",
	"snmp": "monitor", "southbound": "southbound",
}

// standbyRoot marks samples spent under the standby precompute, whose
// work lands in fibbing/spf/te frames: controller.standby.cpu_ms counts
// them cumulatively.
const standbyRoot = modulePrefix + "controller.(*Controller).PrecomputeStandby"

// cpuByLayer sums a CPU profile's sample time per layer, in ms. Each
// sample counts towards the innermost frame from a repository package,
// so runtime work a package calls (allocation, map access) is its own;
// samples with no repository frame (background GC) count nowhere.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		ms := float64(s.nanos) / 1e6
		layer := ""
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				name := p.strings[p.functions[fn]]
				if layer == "" {
					if pkg, ok := repoPackage(name); ok {
						layer = profileLayers[pkg]
						if layer == "" {
							layer = "-" // a repository frame of no listed layer
						}
					}
				}
				if name == standbyRoot {
					out["controller.standby"] += ms
				}
			}
		}
		if layer != "" && layer != "-" {
			out[layer] += ms
		}
	}
	return out, nil
}

// repoPackage returns the package of a repository function name such as
// "fibbing.net/fibbing/internal/te.(*tableau).pivot" ("te").
func repoPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

type profSample struct {
	locs  []uint64
	nanos int64
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

// decodeProfile reads the profile.proto fields cpuByLayer needs: sample
// (2), location (4), function (5) and string_table (6). The value used
// is the last sample value (cpu nanoseconds in a Go CPU profile).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []int64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					for _, x := range appendPacked(nil, v, d) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nanos = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field that may be packed (data
// set) or a single unpacked element (v).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// fields walks one protobuf message, calling fn per field with the
// varint value (wire type 0) or the payload (wire type 2; non-nil).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
