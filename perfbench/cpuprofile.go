package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark reads
// only what attribution needs — samples, locations, functions and the
// string table — with a minimal decoder, so it needs no module beyond
// the standard library.

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("cpuprofile: truncated protobuf")

// pbField is one decoded protobuf field: a varint, or a byte string
// for length-delimited fields.
type pbField struct {
	num    int
	wire   int
	varint uint64
	data   []byte
}

// pbFields decodes the fields of one message.
func pbFields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("cpuprofile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a base-128 varint, returning the bytes read (0 on
// truncation).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// stackSample is one profile sample: its frames innermost first and
// its sample count.
type stackSample struct {
	frames []string
	count  int64
}

// parseCPUProfile decodes a gzipped CPU profile into stack samples.
func parseCPUProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		strs    []string
		locFns  = make(map[uint64][]uint64) // location -> function ids, innermost first
		fnName  = make(map[uint64]uint64)   // function -> string index
	)
	err = pbFields(pb, func(f pbField) error {
		switch f.num {
		case profSample:
			var s rawSample
			err := pbFields(f.data, func(g pbField) error {
				var err error
				switch g.num {
				case sampleLocationID:
					s.locs, err = pbUints(g, s.locs)
				case sampleValue:
					s.vals, err = pbUints(g, s.vals)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case locationID:
					id = g.varint
				case locationLine:
					return pbFields(g.data, func(h pbField) error {
						if h.num == lineFunctionID {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case functionID:
					id = g.varint
				case functionName:
					name = g.varint
				}
				return nil
			})
			fnName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stackSample{frames: frames, count: int64(s.vals[0])})
	}
	return out, nil
}

// Runtime frames that mark a sample as garbage collection, allocation
// or goroutine scheduling. Matching is by prefix, innermost frame
// first, so a sample inside runtime.mallocgc called from a layer counts
// as allocation, not as the layer.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.deductSweepCredit", "runtime.wbBufFlush", "runtime.(*gcWork)",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.newarray", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.goexit0", "runtime.newproc",
		"runtime.execute", "runtime.gosched", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.stopm", "runtime.startm", "runtime.wakep",
		"runtime.mcall", "runtime.gogo",
	}
)

const modulePrefix = "github.com/faaspipe/faaspipe/internal/"

// attribute names the row a sample's CPU time goes to: "runtime.gc",
// "runtime.malloc" or "runtime.sched" for runtime work, otherwise the
// innermost internal/<module> frame's module, otherwise "other" (the
// standard library and the benchmark's own code).
func attribute(frames []string) string {
	for _, fn := range frames {
		switch {
		case hasAnyPrefix(fn, gcFrames):
			return "runtime.gc"
		case hasAnyPrefix(fn, mallocFrames):
			return "runtime.malloc"
		case hasAnyPrefix(fn, schedFrames):
			return "runtime.sched"
		}
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

// isLinkFrame reports whether the innermost internal frame of a des
// sample is the link model rather than the event kernel.
func isLinkFrame(frames []string) bool {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, modulePrefix+"des."); ok {
			return strings.HasPrefix(rest, "(*Link)") || strings.HasPrefix(rest, "Waterfill")
		}
	}
	return false
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuShares turns samples into each row's share of all samples, plus
// the des link model's share under "des.link".
func cpuShares(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64)
	var total int64
	for _, s := range samples {
		row := attribute(s.frames)
		shares[row] += float64(s.count)
		if row == "des" && isLinkFrame(s.frames) {
			shares["des.link"] += float64(s.count)
		}
		total += s.count
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares
}
