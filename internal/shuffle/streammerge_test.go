package shuffle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
)

// The production merge is mergeStreamedRuns over chunk-fed cursors;
// these tests drive it directly over resident runs cut into chunks, at
// sizes that split every line (1), straddle lines at odd offsets (7),
// span ~21 lines (1009), and hand over each run whole (0).
var mergeChunkSizes = []int64{1, 7, 1009, 0}

// streamSources wraps resident runs as chunk sources.
func streamSources(runs [][]byte, chunk int64) []runSource {
	srcs := make([]runSource, len(runs))
	for i, run := range runs {
		srcs[i] = &payloadSource{pl: payload.RealNoCopy(run), chunk: chunk}
	}
	return srcs
}

// mergeStreamed runs the streamed merge into one output buffer. It
// checks that the reported total is every input byte.
func mergeStreamed(t *testing.T, runs [][]byte, chunk int64) ([]byte, error) {
	t.Helper()
	var out []byte
	sized, total, err := mergeStreamedRuns(nil, streamSources(runs, chunk), nil,
		func(_ bed.Key, line []byte) error {
			out = append(out, line...)
			out = append(out, '\n')
			return nil
		})
	if err != nil {
		return nil, err
	}
	if sized {
		t.Fatal("real runs reported as sized")
	}
	var want int64
	for _, run := range runs {
		want += int64(len(run))
	}
	if total != want {
		t.Fatalf("total = %d, want %d input bytes", total, want)
	}
	return out, nil
}

// forEachChunkSize runs fn as a subtest per chunk size.
func forEachChunkSize(t *testing.T, fn func(t *testing.T, chunk int64)) {
	for _, chunk := range mergeChunkSizes {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) { fn(t, chunk) })
	}
}

func methRecord(chrom string, start int64, name string) bed.Record {
	return bed.Record{Chrom: chrom, Start: start, End: start + 1, Name: name,
		Score: 1, Strand: '+', Coverage: 1, MethPct: 50}
}

func TestStreamedMergeRejectsUnsortedRun(t *testing.T) {
	run := bed.AppendTSV(bed.AppendTSV(nil, methRecord("chr2", 100, ".")), methRecord("chr1", 5, "."))
	forEachChunkSize(t, func(t *testing.T, chunk int64) {
		if _, err := mergeStreamed(t, [][]byte{run}, chunk); err == nil {
			t.Fatal("unsorted run accepted")
		}
	})
}

func TestStreamedMergeRejectsCorruptLine(t *testing.T) {
	forEachChunkSize(t, func(t *testing.T, chunk int64) {
		if _, err := mergeStreamed(t, [][]byte{[]byte("chr1\tnot-a-number\t2\n")}, chunk); err == nil {
			t.Fatal("corrupt line accepted")
		}
	})
}

func TestStreamedMergeNoRuns(t *testing.T) {
	forEachChunkSize(t, func(t *testing.T, chunk int64) {
		if out, err := mergeStreamed(t, nil, chunk); err != nil || len(out) != 0 {
			t.Fatalf("merge of no runs = %q, %v", out, err)
		}
	})
}

func TestStreamedMergeBlankOnlyRuns(t *testing.T) {
	forEachChunkSize(t, func(t *testing.T, chunk int64) {
		out, err := mergeStreamed(t, [][]byte{nil, {}, []byte("\n \n"), []byte("\n\n\n")}, chunk)
		if err != nil || len(out) != 0 {
			t.Fatalf("merge of empty/blank runs = %q, %v", out, err)
		}
	})
}

func TestStreamedMergeSingleRun(t *testing.T) {
	run := bed.Marshal(bed.Generate(bed.GenConfig{Records: 100, Seed: 75, Sorted: true}))
	forEachChunkSize(t, func(t *testing.T, chunk int64) {
		out, err := mergeStreamed(t, [][]byte{run}, chunk)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		if !bytes.Equal(out, run) {
			t.Fatal("single sorted run should round-trip byte-identically")
		}
	})
}

func TestStreamedMergeAllEqualKeys(t *testing.T) {
	// Every record carries the same key: the heap falls back to the
	// run-index tie-break, concatenating the runs in index order.
	line := func(tag string) []byte { return bed.AppendTSV(nil, methRecord("chr3", 50, tag)) }
	runs := [][]byte{
		append(line("a"), line("b")...),
		append(line("c"), line("d")...),
		line("e"),
	}
	want := bytes.Join(runs, nil)
	forEachChunkSize(t, func(t *testing.T, chunk int64) {
		out, err := mergeStreamed(t, runs, chunk)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("equal-key merge is not run-index order:\n got %q\nwant %q", out, want)
		}
	})
}

func TestStreamedMergeTrailingUnterminatedLine(t *testing.T) {
	run := bed.AppendTSV(bed.AppendTSV(nil, methRecord("chr1", 1, ".")), methRecord("chr1", 9, "."))
	run = run[:len(run)-1] // strip the final newline
	want := append(append([]byte{}, run...), '\n')
	forEachChunkSize(t, func(t *testing.T, chunk int64) {
		out, err := mergeStreamed(t, [][]byte{run}, chunk)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("unterminated final line mishandled:\n got %q\nwant %q", out, want)
		}
	})
}

func TestStreamedMergeCursorExhaustsMidMerge(t *testing.T) {
	// Run 0 exhausts while runs 1 and 2 still hold records: the heap
	// must drop the dead cursor and keep merging the remainder.
	mk := func(starts ...int64) []byte {
		var out []byte
		for _, s := range starts {
			out = bed.AppendTSV(out, methRecord("chr2", s, "."))
		}
		return out
	}
	runs := [][]byte{mk(10, 11), mk(5, 20, 40), mk(1, 30, 50, 60)}
	want := mk(1, 5, 10, 11, 20, 30, 40, 50, 60)
	forEachChunkSize(t, func(t *testing.T, chunk int64) {
		out, err := mergeStreamed(t, runs, chunk)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("mid-merge exhaustion mishandled:\n got %q\nwant %q", out, want)
		}
	})
}

// TestPropertyStreamedMergeMatchesResidentMerge: for random run counts,
// adversarial keys (prefix-colliding scaffolds, duplicates, boundary
// keys), blank lines, unterminated final lines, and random chunkings,
// the streamed merge must emit byte-for-byte what the resident
// mergeRuns oracle emits, and the streamed split-emit must produce
// exactly mergeSplit's partitions.
func TestPropertyStreamedMergeMatchesResidentMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4099))
	for trial := 0; trial < 40; trial++ {
		recs := adversarialRecords(int64(trial+1), 200+rng.Intn(1500))
		g := 1 + rng.Intn(6)
		lists := make([][]bed.Record, g)
		for _, r := range recs {
			i := rng.Intn(g)
			lists[i] = append(lists[i], r)
		}
		runs := make([][]byte, g)
		for i, rl := range lists {
			bed.Sort(rl)
			run := bed.Marshal(rl)
			if len(run) > 0 && rng.Intn(3) == 0 {
				run = append(run, "\n \n"...) // trailing blank lines
			}
			if len(run) > 0 && rng.Intn(3) == 0 {
				run = bytes.TrimRight(run, " \n") // unterminated final line
			}
			runs[i] = run
		}
		var chunk int64
		switch trial % 4 {
		case 0:
			chunk = 1
		case 1:
			chunk = int64(1 + rng.Intn(64))
		case 2:
			chunk = int64(200 + rng.Intn(4000))
		}

		want, err := mergeRuns(runs)
		if err != nil {
			t.Fatalf("trial %d: mergeRuns: %v", trial, err)
		}
		got, err := mergeStreamed(t, runs, chunk)
		if err != nil {
			t.Fatalf("trial %d: streamed merge: %v", trial, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (g=%d chunk=%d): streamed merge differs from mergeRuns (%d vs %d bytes)",
				trial, g, chunk, len(got), len(want))
		}

		k := 1 + rng.Intn(7)
		bounds := benchBounds(recs, k)
		wantParts, err := mergeSplit(runs, k, bounds)
		if err != nil {
			t.Fatalf("trial %d: mergeSplit: %v", trial, err)
		}
		gotParts := make([][]byte, k)
		if _, _, err := mergeStreamedRuns(nil, streamSources(runs, chunk), nil,
			splitEmitter(gotParts, bounds, 0)); err != nil {
			t.Fatalf("trial %d: streamed split: %v", trial, err)
		}
		for r := range wantParts {
			if !bytes.Equal(gotParts[r], wantParts[r]) || (gotParts[r] == nil) != (wantParts[r] == nil) {
				t.Fatalf("trial %d (g=%d k=%d chunk=%d): partition %d differs from mergeSplit (%d vs %d bytes)",
					trial, g, k, chunk, r, len(gotParts[r]), len(wantParts[r]))
			}
		}
	}
}
