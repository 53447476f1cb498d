package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// FuzzScoreFrame holds the /node/score request decoder to its
// contract on every input: an accepted frame holds only finite values
// and a finite, non-negative temperature, and re-encodes to exactly
// its own bytes; a refused frame allocates nothing.
func FuzzScoreFrame(f *testing.F) {
	valid, err := encodeScoreFrame([][]float64{{1, -2.5, 3e-300}, {0, math.MaxFloat64, -0.0}}, 0.05)
	if err != nil {
		f.Fatal(err)
	}
	header := func(rows, cols uint32, temperature float64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, rows)
		b = binary.LittleEndian.AppendUint32(b, cols)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(temperature))
	}
	nan := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(nan[24:], math.Float64bits(math.NaN()))
	for _, seed := range [][]byte{
		valid,
		valid[:15],
		valid[:len(valid)-8],
		nan,
		header(math.MaxUint32, math.MaxUint32, 1),
		header(math.MaxUint32, 1, 1),
		header(3, 0, 1),
		header(0, 0, 1),
		append(header(1, 1, -1), valid[16:24]...),
		[]byte(`{"xs":[[1,2,3]],"temperature":0.05}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		xs, temperature, err := decodeScoreFrame(b)
		if err != nil {
			if allocs := testing.AllocsPerRun(1, func() { _, _, _ = decodeScoreFrame(b) }); allocs != 0 {
				t.Fatalf("refused frame (%v) allocated %v times", err, allocs)
			}
			return
		}
		if math.IsNaN(temperature) || math.IsInf(temperature, 0) || temperature < 0 {
			t.Fatalf("accepted temperature %v", temperature)
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
		again, err := encodeScoreFrame(xs, temperature)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("re-encoded to %x, %v; frame was %x", again, err, b)
		}
	})
}

// TestEncodeScoreFrameRefuses: the encoder refuses every batch the
// node would refuse, and a ragged batch, before it sizes the frame —
// a long first row followed by many empty rows must not allocate
// rows × first-row length.
func TestEncodeScoreFrameRefuses(t *testing.T) {
	ragged := make([][]float64, 10001)
	ragged[0] = make([]float64, 1000)
	for name, tc := range map[string]struct {
		xs          [][]float64
		temperature float64
	}{
		"empty batch":          {nil, 0.05},
		"row without features": {[][]float64{{}}, 0.05},
		"long row, empty rows": {ragged, 0.05},
		"short second row":     {[][]float64{{1, 2}, {1}}, 0.05},
		"NaN feature":          {[][]float64{{1, math.NaN()}}, 0.05},
		"+Inf feature":         {[][]float64{{math.Inf(1), 1}}, 0.05},
		"-Inf feature":         {[][]float64{{1, math.Inf(-1)}}, 0.05},
		"negative temperature": {[][]float64{{1, 2}}, -1},
		"NaN temperature":      {[][]float64{{1, 2}}, math.NaN()},
		"infinite temperature": {[][]float64{{1, 2}}, math.Inf(1)},
	} {
		if b, err := encodeScoreFrame(tc.xs, tc.temperature); err == nil {
			t.Errorf("%s: encoded %d bytes", name, len(b))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := encodeScoreFrame(ragged, 0.05)
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
