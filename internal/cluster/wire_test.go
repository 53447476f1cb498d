package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

// FuzzScoreFrame holds the /node/score request decoder to its
// contract on every input: an accepted frame holds only finite values
// and re-encodes to exactly its own bytes; a refused frame allocates
// nothing.
func FuzzScoreFrame(f *testing.F) {
	valid, err := encodeScoreFrame([][]float64{{1, -2.5, 3e-300}, {0, math.MaxFloat64, -0.0}})
	if err != nil {
		f.Fatal(err)
	}
	header := func(rows, cols uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, rows)
		return binary.LittleEndian.AppendUint32(b, cols)
	}
	nan := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(nan[16:], math.Float64bits(math.NaN()))
	for _, seed := range [][]byte{
		valid,
		valid[:7],
		valid[:len(valid)-8],
		nan,
		header(math.MaxUint32, math.MaxUint32),
		header(math.MaxUint32, 1),
		header(3, 0),
		header(0, 0),
		legacyFrame(valid, 0.05),
		[]byte(`{"xs":[[1,2,3]],"temperature":0.05}`),
		append(header(1, 1), valid[8:16]...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		xs, err := decodeScoreFrame(b)
		if err != nil {
			if allocs := testing.AllocsPerRun(1, func() { _, _ = decodeScoreFrame(b) }); allocs != 0 {
				t.Fatalf("refused frame (%v) allocated %v times", err, allocs)
			}
			return
		}
		if len(xs) == 0 {
			t.Fatal("accepted an empty batch")
		}
		for r, x := range xs {
			if len(x) == 0 || len(x) != len(xs[0]) || cap(x) != len(x) {
				t.Fatalf("row %d: len %d cap %d, row 0 len %d", r, len(x), cap(x), len(xs[0]))
			}
			for _, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("row %d: accepted feature %v", r, v)
				}
			}
		}
		again, err := encodeScoreFrame(xs)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("re-encoded to %x, %v; frame was %x", again, err, b)
		}
	})
}

// legacyFrame rewrites a frame into the older 16-byte-header layout,
// which carried a temperature f64 between the header and the features.
func legacyFrame(frame []byte, temperature float64) []byte {
	b := binary.LittleEndian.AppendUint64(append([]byte(nil), frame[:scoreHeader]...), math.Float64bits(temperature))
	return append(b, frame[scoreHeader:]...)
}

// TestDecodeScoreFrameRefuses: each malformed frame is refused with its
// own error. A frame in the older 16-byte-header layout has a body one
// float64 longer than rows×cols, so it is refused as a shape mismatch
// at any temperature it carried, never read as features.
func TestDecodeScoreFrameRefuses(t *testing.T) {
	valid, err := encodeScoreFrame([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	nan := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(nan[scoreHeader+8:], math.Float64bits(math.NaN()))
	for name, tc := range map[string]struct {
		b    []byte
		want error
	}{
		"header short of 8 bytes":         {valid[:7], errFrameShape},
		"partial feature":                 {valid[:len(valid)-3], errFrameShape},
		"claim larger than body":          {valid[:len(valid)-8], errFrameShape},
		"empty batch":                     {make([]byte, scoreHeader), errFrameEmpty},
		"NaN feature":                     {nan, errFrameFeature},
		"16-byte header, temperature 0":   {legacyFrame(valid, 0), errFrameShape},
		"16-byte header, temperature .05": {legacyFrame(valid, 0.05), errFrameShape},
		"16-byte header, NaN":             {legacyFrame(valid, math.NaN()), errFrameShape},
	} {
		if xs, err := decodeScoreFrame(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %d rows, error %v; want %v", name, len(xs), err, tc.want)
		}
	}
}

// TestEncodeScoreFrameRefuses: the encoder refuses every batch the
// node would refuse, and a ragged batch, before it sizes the frame —
// a long first row followed by many empty rows must not allocate
// rows × first-row length.
func TestEncodeScoreFrameRefuses(t *testing.T) {
	ragged := make([][]float64, 10001)
	ragged[0] = make([]float64, 1000)
	for name, xs := range map[string][][]float64{
		"empty batch":          nil,
		"row without features": {{}},
		"long row, empty rows": ragged,
		"short second row":     {{1, 2}, {1}},
		"NaN feature":          {{1, math.NaN()}},
		"+Inf feature":         {{math.Inf(1), 1}},
		"-Inf feature":         {{1, math.Inf(-1)}},
	} {
		if b, err := encodeScoreFrame(xs); err == nil {
			t.Errorf("%s: encoded %d bytes", name, len(b))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := encodeScoreFrame(ragged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ragged batch encoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refused ragged batch allocated %d bytes", got)
	}
}

// TestScoreAnswersRoundTrip: the node's answer frame carries classes
// and confidences exactly, and a frame whose count disagrees with the
// batch or with its own length is refused.
func TestScoreAnswersRoundTrip(t *testing.T) {
	classes := []int{0, 7, 25}
	confs := []float64{1, 0.3333333333333333, math.SmallestNonzeroFloat64}
	b := encodeScoreAnswers(classes, confs)
	gotClasses, gotConfs, err := decodeScoreAnswers(b, len(classes))
	if err != nil {
		t.Fatal(err)
	}
	for i := range classes {
		if gotClasses[i] != classes[i] || math.Float64bits(gotConfs[i]) != math.Float64bits(confs[i]) {
			t.Fatalf("answer %d: (%d, %v), want (%d, %v)", i, gotClasses[i], gotConfs[i], classes[i], confs[i])
		}
	}
	for name, tc := range map[string]struct {
		b    []byte
		rows int
	}{
		"fewer rows than the batch": {b, 4},
		"truncated":                 {b[:len(b)-1], 3},
		"trailing byte":             {append(append([]byte(nil), b...), 0), 3},
		"no header":                 {b[:3], 3},
	} {
		if _, _, err := decodeScoreAnswers(tc.b, tc.rows); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
