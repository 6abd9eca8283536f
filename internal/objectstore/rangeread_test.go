package objectstore

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
)

// readRange runs one ReadRange against a fresh rig and returns the
// payload (nil on error) plus the error.
func readRange(t *testing.T, cfg Config, size int64, off, n int64, retries int) (payload.Payload, error, []byte) {
	t.Helper()
	sim, svc, data := streamRig(t, cfg, int(size))
	var (
		out    payload.Payload
		outErr error
	)
	sim.Spawn("read", func(p *des.Proc) {
		c := NewClient(svc)
		if retries > 0 {
			c.MaxRetries = retries
		}
		out, outErr = c.ReadRange(p, "b", "k", off, n)
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return out, outErr, data
}

// TestReadRangeExactBytes: the returned payload is byte-for-byte the
// requested window, across multiple stream chunks.
func TestReadRangeExactBytes(t *testing.T) {
	cfg := fastCfg()
	size := int64(3*DefaultStreamChunk + 1234)
	off, n := int64(DefaultStreamChunk-7), int64(DefaultStreamChunk+99)
	out, err, data := readRange(t, cfg, size, off, n, 0)
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	got, ok := out.Bytes()
	if !ok {
		t.Fatal("range of a real object is not real bytes")
	}
	if !bytes.Equal(got, data[off:off+n]) {
		t.Fatalf("range bytes differ: got %d bytes, want %d at [%d,%d)", len(got), n, off, off+n)
	}
}

// TestReadRangeClampsPastEOF: overhanging and fully-past-EOF ranges
// clamp instead of erroring, and n < 0 reads through the end.
func TestReadRangeClampsPastEOF(t *testing.T) {
	cfg := fastCfg()
	const size = 10000
	cases := []struct {
		name     string
		off, n   int64
		wantOff  int64
		wantSize int64
	}{
		{"overhang", size - 100, 500, size - 100, 100},
		{"at-eof", size, 10, 0, 0},
		{"past-eof", size + 5000, 10, 0, 0},
		{"open-ended", 100, -1, 100, size - 100},
		{"negative-off", -50, 60, 0, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err, data := readRange(t, cfg, size, tc.off, tc.n, 0)
			if err != nil {
				t.Fatalf("ReadRange: %v", err)
			}
			if out.Size() != tc.wantSize {
				t.Fatalf("size = %d, want %d", out.Size(), tc.wantSize)
			}
			if tc.wantSize > 0 {
				got, _ := out.Bytes()
				if !bytes.Equal(got, data[tc.wantOff:tc.wantOff+tc.wantSize]) {
					t.Fatal("clamped range bytes differ")
				}
			}
		})
	}
}

// TestReadRangeSurvivesThrottles: with an injected failure rate the
// chunked transfer resumes mid-body under the shared retry budget and
// still delivers exact bytes.
func TestReadRangeSurvivesThrottles(t *testing.T) {
	cfg := fastCfg()
	cfg.FailureRate = 0.15
	size := int64(4 * DefaultStreamChunk)
	out, err, data := readRange(t, cfg, size, 1000, size-2000, 1000)
	if err != nil {
		t.Fatalf("ReadRange under 15%% throttling: %v", err)
	}
	got, _ := out.Bytes()
	if !bytes.Equal(got, data[1000:size-1000]) {
		t.Fatal("throttled range bytes differ")
	}
}

// TestReadRangeRetryBudgetShared: the stream leg exhausts the one
// MaxRetries budget under a hostile failure rate instead of retrying
// forever — the same ErrSlowDown surfacing GetStream documents.
func TestReadRangeRetryBudgetShared(t *testing.T) {
	cfg := fastCfg()
	cfg.FailureRate = 0.97
	_, err, _ := readRange(t, cfg, 4*DefaultStreamChunk, 0, -1, 3)
	if err == nil {
		t.Fatal("ReadRange survived 97% failure rate with 3 retries")
	}
	if !errors.Is(err, ErrSlowDown) {
		t.Fatalf("error = %v, want retries-exhausted ErrSlowDown", err)
	}
}

// readRangeOf stores pl as object "b/k" on a fresh fastCfg rig, runs
// one ReadRange over it and returns the result, its error and the
// virtual time the whole run took.
func readRangeOf(t *testing.T, pl payload.Payload, off, n int64) (payload.Payload, error, time.Duration) {
	t.Helper()
	sim := des.New(7)
	svc, err := New(sim, fastCfg())
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	var (
		out    payload.Payload
		outErr error
	)
	sim.Spawn("read", func(p *des.Proc) {
		c := NewClient(svc)
		if err := c.CreateBucket(p, "b"); err != nil {
			outErr = err
			return
		}
		if err := c.Put(p, "b", "k", pl); err != nil {
			outErr = err
			return
		}
		out, outErr = c.ReadRange(p, "b", "k", off, n)
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return out, outErr, sim.Now()
}

// TestReadRangeHugeLength: a length whose off+n overflows reads
// through the end like any overhanging range, on a real object (not a
// slice-bounds panic) and on a sized one (not a stream that runs until
// the event limit).
func TestReadRangeHugeLength(t *testing.T) {
	out, err, _ := readRangeOf(t, payload.Real([]byte("hello world")), 1, math.MaxInt64)
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	if got, _ := out.Bytes(); string(got) != "ello world" {
		t.Fatalf("ReadRange(1, MaxInt64) = %q, want %q", got, "ello world")
	}
	out, err, took := readRangeOf(t, payload.Sized(11), 1, math.MaxInt64)
	if err != nil {
		t.Fatalf("sized ReadRange: %v", err)
	}
	if out.Size() != 10 {
		t.Fatalf("sized ReadRange(1, MaxInt64) size = %d, want 10", out.Size())
	}
	if took > time.Second {
		t.Fatalf("sized ReadRange of 10 bytes took %v of virtual time", took)
	}
}

// FuzzReadRange: any (off, n) over any object returns exactly the
// clamped window ReadRange documents; it never panics or errors.
func FuzzReadRange(f *testing.F) {
	f.Add(uint16(11), int64(1), int64(math.MaxInt64))
	f.Add(uint16(11), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add(uint16(11), int64(math.MinInt64), int64(math.MinInt64))
	f.Add(uint16(0), int64(0), int64(-1))
	f.Add(uint16(3000), int64(2999), int64(2))
	f.Fuzz(func(t *testing.T, size uint16, off, n int64) {
		out, err, data := readRange(t, fastCfg(), int64(size)%4096, off, n, 0)
		if err != nil {
			t.Fatalf("ReadRange(%d, %d) over %d bytes: %v", off, n, len(data), err)
		}
		lo := off
		if lo < 0 {
			lo = 0
		}
		var want []byte
		if lo < int64(len(data)) {
			want = data[lo:]
			if n >= 0 && n < int64(len(want)) {
				want = want[:n]
			}
		}
		got, _ := out.Bytes()
		if !bytes.Equal(got, want) || out.Size() != int64(len(want)) {
			t.Fatalf("ReadRange(%d, %d) over %d bytes = %d bytes, want %d", off, n, len(data), out.Size(), len(want))
		}
	})
}
