package main

// A small reader for the CPU profiles runtime/pprof writes (gzip-compressed
// protocol buffers, perftools.profiles.Profile), enough to attribute each
// sample to a layer of the simulator.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is a decoded CPU profile: one call stack per sample, leaf first,
// with inlined calls expanded innermost first.
type profile struct {
	stacks  [][]string
	weights []int64 // samples per stack
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	pfSample   = 2
	pfLocation = 4
	pfFunction = 5
	pfStrings  = 6

	sampleLocations = 1
	sampleValues    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// decodeProfile reads a profile written by pprof.StartCPUProfile.
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
		locs []uint64
		n    int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case pfSample:
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case sampleLocations:
					s.locs = appendPacked(s.locs, v, b)
				case sampleValues:
					if vals := appendPacked(nil, v, b); len(vals) > 0 && s.n == 0 {
						s.n = int64(vals[0]) // the first value counts samples
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case pfLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case pfFunction:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case pfStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				i := funcs[fn]
				if i < 0 || i >= int64(len(strs)) {
					return nil, errors.New("profile: function name out of range")
				}
				stack = append(stack, strs[i])
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, s.n)
	}
	return p, nil
}

// appendPacked appends a repeated varint field's values: one value v when
// the field was encoded alone, or every varint in b when it was packed.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField calls fn for every field of an encoded message: v holds a
// varint field's value, b a length-delimited field's bytes (nil otherwise).
// Fixed-width fields, which the profile fields read here never are, come
// with neither.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = varint(msg)
			if n == 0 {
				return errors.New("truncated varint")
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			n = 8
		case 2:
			l, m := varint(msg)
			if m == 0 || uint64(len(msg)-m) < l {
				return errors.New("truncated bytes")
			}
			b = msg[m : m+int(l)] // non-nil even when empty: appendPacked tells packed fields by it
			n = m + int(l)
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			n = 4
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		msg = msg[n:]
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint; n is 0 when b holds none.
func varint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// runtimeLayer takes the samples with no simulator frame: the Go runtime's
// own work (GC, scheduler) and the harness.
const runtimeLayer = "runtime"

// layerOf names the simulator layer a function belongs to: its package path
// below ugpu/internal/ with the slashes dropped (cluster/serve becomes
// clusterserve, its package name), or "" outside those packages.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "ugpu/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // type arguments may hold other paths
	}
	slash := strings.LastIndexByte(rest, '/')
	if dot := strings.IndexByte(rest[slash+1:], '.'); dot >= 0 {
		rest = rest[:slash+1+dot]
	}
	return strings.ReplaceAll(rest, "/", "")
}

// shares charges each sample to the innermost frame of a simulator layer,
// so a runtime map or allocation call counts against the layer that made
// it, and samples with no such frame to runtimeLayer. The shares sum to 1.
func (p *profile) shares() map[string]float64 {
	out := map[string]float64{}
	total := p.total()
	if total == 0 {
		return out
	}
	for i, st := range p.stacks {
		layer := runtimeLayer
		for _, fn := range st {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += float64(p.weights[i]) / float64(total)
	}
	return out
}

// cumulative is the share of samples with fn anywhere on the stack.
func (p *profile) cumulative(fn string) float64 {
	total := p.total()
	if total == 0 {
		return 0
	}
	var n int64
	for i, st := range p.stacks {
		for _, f := range st {
			if f == fn {
				n += p.weights[i]
				break
			}
		}
	}
	return float64(n) / float64(total)
}

func (p *profile) total() int64 {
	var t int64
	for _, w := range p.weights {
		t += w
	}
	return t
}

// merge appends q's samples to p.
func (p *profile) merge(q *profile) {
	p.stacks = append(p.stacks, q.stacks...)
	p.weights = append(p.weights, q.weights...)
}
