package methcomp

import (
	"encoding/binary"
	"errors"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// container assembles a METHCOMP header by hand: count, one
// chromosome per name, the (chrom, n) run pairs, flags, and the coded
// section.
func container(count uint64, chroms []string, runs [][2]uint64, flags byte, coded []byte) []byte {
	out := append([]byte(magic), version)
	out = binary.AppendUvarint(out, count)
	out = binary.AppendUvarint(out, uint64(len(chroms)))
	for _, c := range chroms {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
	}
	out = binary.AppendUvarint(out, uint64(len(runs)))
	for _, r := range runs {
		out = binary.AppendUvarint(out, r[0])
		out = binary.AppendUvarint(out, r[1])
	}
	out = append(out, flags)
	out = binary.AppendUvarint(out, uint64(len(coded)))
	return append(out, coded...)
}

// craftedCorrupt returns containers that each once crashed Decompress
// or made it return garbage with a nil error.
func craftedCorrupt() map[string][]byte {
	const flags = flagNamesDot | flagScoreDerived
	coded := []byte{0, 0x80, 0x12, 0x34, 0x56}

	// 2^41 runs behind a 26-byte input: sized a 2^41-element run list.
	hugeRuns := append([]byte(magic), version)
	hugeRuns = binary.AppendUvarint(hugeRuns, 0) // count
	hugeRuns = binary.AppendUvarint(hugeRuns, 0) // chroms
	hugeRuns = binary.AppendUvarint(hugeRuns, 1<<41)
	hugeRuns = append(hugeRuns, make([]byte, 26-len(hugeRuns))...)

	// A chromosome name claiming MaxInt64 bytes: overflowed the bounds
	// check and panicked slicing.
	hugeName := append([]byte(magic), version)
	hugeName = binary.AppendUvarint(hugeName, 0)
	hugeName = binary.AppendUvarint(hugeName, 1)
	hugeName = binary.AppendUvarint(hugeName, 1<<63-1)
	hugeName = append(hugeName, "chr1"...)

	return map[string][]byte{
		"huge-run-count": hugeRuns,
		// 2^34 records in one run: sized a 2^34-record output slice.
		"huge-record-count": container(1<<34, []string{"chr1"}, [][2]uint64{{0, 1 << 34}}, flags, coded),
		// 2^26 records from 5 coded bytes: decoded zeros past the end
		// for 23 s and returned 67M garbage records with a nil error.
		"overread-count":   container(1<<26, []string{"chr1"}, [][2]uint64{{0, 1 << 26}}, flags, coded),
		"huge-name-length": hugeName,
		// A count the coded length could hold, but these bytes cannot:
		// the decoder runs dry mid-stream.
		"short-stream": container(60, []string{"chr1"}, [][2]uint64{{0, 60}}, flags, coded),
		// Runs whose lengths wrap their uint64 total back to the count.
		"wrapping-runs": container(2, []string{"chr1"}, [][2]uint64{{0, 1 << 63}, {0, 1<<63 + 2}}, flags, coded),
	}
}

func TestDecompressCraftedInputsAreErrCorrupt(t *testing.T) {
	for name, data := range craftedCorrupt() {
		recs, err := Decompress(data)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %d records, err = %v, want ErrCorrupt", name, len(recs), err)
		}
	}
}

// FuzzDecompress feeds arbitrary bytes to the decoder: it must never
// panic or exhaust memory, must fail with ErrCorrupt (or the
// unsupported-version error), and whatever it does accept must
// survive a Compress∘Decompress round trip unchanged.
func FuzzDecompress(f *testing.F) {
	for _, data := range craftedCorrupt() {
		f.Add(data)
	}
	for _, recs := range [][]bed.Record{
		nil,
		bed.Generate(bed.GenConfig{Records: 40, Seed: 3, Sorted: true}),
		bed.Generate(bed.GenConfig{Records: 40, Seed: 4, Sorted: false}),
	} {
		comp, err := Compress(recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp)
		f.Add(comp[:len(comp)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Decompress(data)
		if err != nil {
			if len(data) > len(magic) && string(data[:len(magic)]) == magic && data[len(magic)] != version {
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			return
		}
		if len(recs) > maxRecordsPerCodedByte*len(data) {
			t.Fatalf("%d records from %d bytes", len(recs), len(data))
		}
		checkRoundTrip(t, recs)
	})
}

// FuzzCompressRoundTrip derives records from the fuzz bytes — sorted
// runs, unsorted jumps, name and score exceptions — and requires
// Decompress(Compress(recs)) to return them unchanged.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("chr1\tchr2 methylation 0 50 100"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		const per = 6
		if len(data) > 6000 {
			return
		}
		chroms := []string{"chr1", "chr2", "chrX", "chrUn_KI270302v1"}
		recs := make([]bed.Record, 0, len(data)/per)
		pos := int64(0)
		for i := 0; i+per <= len(data); i += per {
			b := data[i : i+per]
			if b[0]&0x80 != 0 {
				pos = int64(b[1]) << 12 // an unsorted jump backwards or forwards
			}
			pos += int64(b[1]) + 1
			cov := int(binary.LittleEndian.Uint16(b[2:4]))
			rec := bed.Record{
				Chrom:    chroms[int(b[0])%len(chroms)],
				Start:    pos,
				End:      pos + int64(b[4]%9) + 1,
				Name:     ".",
				Score:    min(cov, 1000),
				Strand:   '+',
				Coverage: cov,
				MethPct:  int(b[5]) % 101,
			}
			if b[4]&0x40 != 0 {
				rec.Strand = '-'
			}
			if b[0]&0x40 != 0 {
				rec.Name = string(b[:2])
			}
			if b[0]&0x20 != 0 {
				rec.Score = int(b[5]) % 1001
			}
			recs = append(recs, rec)
		}
		checkRoundTrip(t, recs)
	})
}

func checkRoundTrip(t *testing.T, recs []bed.Record) {
	t.Helper()
	comp, err := Compress(recs)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	back, err := Decompress(comp)
	if err != nil {
		t.Fatalf("Decompress of a fresh container: %v", err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip returned %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, back[i], recs[i])
		}
	}
}
