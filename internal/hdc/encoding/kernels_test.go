package encoding

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hdc"
	"repro/internal/stats"
)

// encodeRef is the reference record encoder: Normalizer.Apply, then
// LevelMemory.Quantize over [0, 1], then the textbook bind and
// bundle, counted one bit at a time with no striping, no carry-save
// tree and no batching. The base and level vectors are regenerated from
// the seed, so nothing the encoder built is trusted. Ties at even
// feature counts set the even dimensions, as BindMemory.MajorityInto
// does.
func encodeRef(e *RecordEncoder, seed uint64, features []float64) *bitvec.Vector {
	unit := e.norm.Apply(features)
	items, err := hdc.NewItemMemory(e.Dimensions(), seed)
	if err != nil {
		panic(err)
	}
	levels, err := hdc.NewLevelMemory(e.Dimensions(), e.levels, seed^0xE7037ED1A0B428DB)
	if err != nil {
		panic(err)
	}
	counts := make([]int, e.Dimensions())
	for k := range features {
		bound := levels.Vector(levels.Quantize(unit[k], 0, 1)).Xor(items.Vector(k))
		for i := range counts {
			if bound.Get(i) {
				counts[i]++
			}
		}
	}
	out := bitvec.New(e.Dimensions())
	n := len(features)
	for i, c := range counts {
		out.Set(i, 2*c > n || 2*c == n && i%2 == 0)
	}
	return out
}

// unitNormalizer is the identity range [0, 1] on each of n features,
// for test rows already drawn in [0, 1].
func unitNormalizer(n int) *Normalizer {
	zeros, ones := make([]float64, n), make([]float64, n)
	for j := range ones {
		ones[j] = 1
	}
	norm, err := NormalizerFromRanges(zeros, ones)
	if err != nil {
		panic(err)
	}
	return norm
}

func randFeatures(n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// TestEncodeBatchMatchesReference proves every encode entry point
// reproduces the per-bit reference: EncodeBatchInto at batch sizes on
// both sides of MaxBatch, EncodeInto and Encode. Feature counts
// straddle the kernel's 16-row block and, at small dims, the 2047
// counts its register planes hold; dimensions straddle the word and
// the 8-word stripe; even feature counts exercise the majority
// tie-break.
func TestEncodeBatchMatchesReference(t *testing.T) {
	const seed = 42
	dimsGrid := []int{1, 63, 64, 65, 100, 257, 10000}
	for _, nf := range []int{1, 2, 7, 8, 9, 63, 64, 65, 75, 561, 617, 2047, 2048, 2049, 4100} {
		for _, dims := range dimsGrid {
			if nf > 617 && dims > 257 {
				continue
			}
			e, err := NewRecordEncoder(dims, 8, unitNormalizer(nf), seed)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]float64, MaxBatch+1)
			want := make([]*bitvec.Vector, len(rows))
			for i := range rows {
				rows[i] = randFeatures(nf, uint64(100*nf+dims+i))
				// Values outside the normalizer's range clamp to the
				// end levels.
				rows[i][i%nf] = float64(i%3) - 0.5
				want[i] = encodeRef(e, seed, rows[i])
			}
			scratch := e.NewScratch()
			for _, batch := range []int{1, 3, MaxBatch, MaxBatch + 1} {
				dsts := make([]*bitvec.Vector, batch)
				for i := range dsts {
					dsts[i] = bitvec.Random(dims, stats.NewRNG(uint64(i)))
				}
				e.EncodeBatchInto(dsts, rows[:batch], scratch)
				for i, got := range dsts {
					if !got.Equal(want[i]) {
						t.Fatalf("nf=%d dims=%d batch=%d: sample %d diverges from the reference", nf, dims, batch, i)
					}
				}
			}
			dst := bitvec.New(dims)
			e.EncodeInto(dst, rows[2], scratch)
			if !dst.Equal(want[2]) || !e.Encode(rows[1]).Equal(want[1]) {
				t.Fatalf("nf=%d dims=%d: single-sample encode diverges from the reference", nf, dims)
			}
		}
	}
}

// floatBytes packs vs as little-endian float64 bits, the form
// FuzzEncodeRaw reads its ranges and values in.
func floatBytes(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzEncodeRaw holds EncodeBatchInto on raw rows to the reference
// path — Normalizer.Apply, then LevelMemory.Quantize over [0, 1], then
// the per-bit bind and bundle — at up to 300 bits, 1–40 features and
// batches on both sides of MaxBatch. ranges holds a (min, max) pair of
// float64s per feature, reused cyclically; a pair the normalizer
// refuses ends the case. values holds the row values in order; rows
// past its end take level boundaries min + span·j/levels for j from −1
// to levels+1, so every case also walks the exact bucket edges and
// values outside the range.
func FuzzEncodeRaw(f *testing.F) {
	const seed = 11
	// Level boundaries of unit, offset and narrow ranges.
	f.Add(floatBytes(0, 1, -3, 5, 10, 10.5, -7.25, 1e-3), []byte{}, uint8(4), uint8(8), uint16(257), uint8(MaxBatch+1))
	f.Add(floatBytes(0.1, 0.7), []byte{}, uint8(1), uint8(5), uint16(64), uint8(MaxBatch))
	// Over [0, 3] at 7 levels, (v − min)·(1/span) puts the edge of
	// bucket 5 in bucket 4: only the division lands it.
	f.Add(floatBytes(-1, 1, 0, 3), []byte{}, uint8(38), uint8(5), uint16(100), uint8(2*MaxBatch+1))
	// Values outside [min, max].
	f.Add(floatBytes(0, 1, -3, 5), floatBytes(-1, 2, 100, -100, 5.5, -3.5, 1, 0), uint8(2), uint8(8), uint16(65), uint8(3))
	// Zero spans and −0.
	f.Add(floatBytes(2, 2, math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), -4, -4), floatBytes(math.Copysign(0, -1), 0, 2, 3, -4, 1), uint8(4), uint8(8), uint16(63), uint8(MaxBatch+1))
	// ±1e308: (v − min) and (v − min)/span overflow to ±Inf.
	f.Add(floatBytes(-1e308, 0, 0, 1e308, -1, 1), floatBytes(1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)), uint8(3), uint8(8), uint16(200), uint8(MaxBatch+2))
	// A span past the float64 range is refused.
	f.Add(floatBytes(-1e308, 1e308), []byte{}, uint8(1), uint8(8), uint16(64), uint8(1))
	// NaN values.
	f.Add(floatBytes(0, 1, -2, 2), floatBytes(math.NaN(), 0.5, math.NaN(), math.NaN()), uint8(2), uint8(4), uint16(130), uint8(MaxBatch+1))
	f.Fuzz(func(t *testing.T, ranges, values []byte, featRaw, levelsRaw uint8, dimsRaw uint16, batchRaw uint8) {
		features := 1 + int(featRaw)%40
		levels := 2 + int(levelsRaw)%31
		dims := 1 + int(dimsRaw)%300
		batch := 1 + int(batchRaw)%(2*MaxBatch+2)
		floats := func(b []byte) []float64 {
			out := make([]float64, len(b)/8)
			for i := range out {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
			return out
		}
		rs, vs := floats(ranges), floats(values)
		if len(rs) < 2 {
			rs = []float64{0, 1}
		}
		mins, maxs := make([]float64, features), make([]float64, features)
		for k := range mins {
			mins[k], maxs[k] = rs[(2*k)%len(rs)], rs[(2*k+1)%len(rs)]
			if mins[k] > maxs[k] {
				mins[k], maxs[k] = maxs[k], mins[k]
			}
		}
		norm, err := NormalizerFromRanges(mins, maxs)
		if err != nil {
			return
		}
		e, err := NewRecordEncoder(dims, levels, norm, seed)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, batch)
		dsts := make([]*bitvec.Vector, batch)
		for i := range rows {
			rows[i] = make([]float64, features)
			for k := range rows[i] {
				if idx := i*features + k; idx < len(vs) {
					rows[i][k] = vs[idx]
				} else {
					j := float64(idx%(levels+3) - 1)
					rows[i][k] = mins[k] + (maxs[k]-mins[k])*j/float64(levels)
				}
			}
			dsts[i] = bitvec.New(dims)
		}
		e.EncodeBatchInto(dsts, rows, nil)
		for i, got := range dsts {
			if !got.Equal(encodeRef(e, seed, rows[i])) {
				t.Fatalf("dims=%d features=%d levels=%d batch=%d: sample %d %v diverges from the reference", dims, features, levels, batch, i, rows[i])
			}
		}
	})
}

// TestEncodeCachedMatchesReference pins Encode and scratch-reusing
// EncodeInto to the reference.
func TestEncodeCachedMatchesReference(t *testing.T) {
	for _, nf := range []int{1, 7, 8, 20, 75} {
		e, err := NewRecordEncoder(2048, 8, unitNormalizer(nf), 42)
		if err != nil {
			t.Fatal(err)
		}
		scratch := e.NewScratch()
		dst := bitvec.New(2048)
		for trial := 0; trial < 10; trial++ {
			x := randFeatures(nf, uint64(100+trial))
			want := encodeRef(e, 42, x)
			if got := e.Encode(x); !got.Equal(want) {
				t.Fatalf("nf=%d trial %d: Encode diverges from reference", nf, trial)
			}
			e.EncodeInto(dst, x, scratch)
			if !dst.Equal(want) {
				t.Fatalf("nf=%d trial %d: EncodeInto with reused scratch diverges", nf, trial)
			}
		}
	}
}

// TestEncodeConcurrentCacheFill encodes from many goroutines at once,
// through pooled scratch and batches of several sizes: the shared
// table is read-only, so every result must match (run under -race in
// CI).
func TestEncodeConcurrentCacheFill(t *testing.T) {
	e, err := NewRecordEncoder(1024, 8, unitNormalizer(30), 7)
	if err != nil {
		t.Fatal(err)
	}
	x := randFeatures(30, 9)
	want := encodeRef(e, 7, x)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := make([][]float64, 1+w)
			dsts := make([]*bitvec.Vector, len(rows))
			for i := range rows {
				rows[i], dsts[i] = x, bitvec.New(1024)
			}
			for i := 0; i < 20; i++ {
				if !e.Encode(x).Equal(want) {
					errs <- "concurrent encode diverged"
					return
				}
				e.EncodeBatchInto(dsts, rows, nil)
				for _, d := range dsts {
					if !d.Equal(want) {
						errs <- "concurrent batch encode diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestEncodeBatchIntoAllocs pins the zero-allocation contract: with
// caller-owned destinations and scratch, a batch-major encode
// allocates nothing, in register planes or past them.
func TestEncodeBatchIntoAllocs(t *testing.T) {
	for _, c := range []struct{ dims, features int }{{2048, 75}, {64, 2049}} {
		e, err := NewRecordEncoder(c.dims, 8, unitNormalizer(c.features), 3)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, MaxBatch+3)
		dsts := make([]*bitvec.Vector, len(rows))
		for i := range rows {
			rows[i], dsts[i] = randFeatures(c.features, uint64(i)), bitvec.New(c.dims)
		}
		scratch := e.NewScratch()
		if allocs := testing.AllocsPerRun(20, func() { e.EncodeBatchInto(dsts, rows, scratch) }); allocs != 0 {
			t.Fatalf("%d features: EncodeBatchInto allocated %v times per call", c.features, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { e.EncodeInto(dsts[0], rows[0], scratch) }); allocs != 0 {
			t.Fatalf("%d features: EncodeInto allocated %v times per call", c.features, allocs)
		}
	}
}

// maxLevelsAt8 is the most levels the level-memory cap admits at 8
// bits: each row takes one 64-byte stripe, and the zero row takes one.
const maxLevelsAt8 = MaxLevelMemory/64 - 1

// TestValidateLevelsCapsLevelMemory checks the level-count rule the
// constructor, training and snapshot loading share.
func TestValidateLevelsCapsLevelMemory(t *testing.T) {
	for _, c := range []struct {
		dims, levels int
		ok           bool
	}{
		{10000, 8, true},
		{10000, 1, false},
		{10000, 0, false},
		{8, maxLevelsAt8, true},
		{8, maxLevelsAt8 + 1, false},
		{8, MaxLevelMemory + 1, false},
		{1024, 1 << 20, false},
		{10000, 1 << 62, false},
	} {
		if err := ValidateLevels(c.dims, c.levels); (err == nil) != c.ok {
			t.Errorf("ValidateLevels(%d, %d) = %v, want ok=%v", c.dims, c.levels, err, c.ok)
		}
	}
	if _, err := NewRecordEncoder(1024, 1<<20, unitNormalizer(1), 1); err == nil {
		t.Fatal("encoder built a 128 MiB level memory")
	}
}

// TestNewRecordEncoderAllocBoundedByLevelCap builds an encoder at the
// most levels the cap admits and bounds everything the constructor
// allocates, the transient hdc.LevelMemory included, by
// 3 × MaxLevelMemory: the striped level rows take the cap itself, and
// the level vectors they are copied from about as much again (1.9 ×
// the cap in all).
func TestNewRecordEncoderAllocBoundedByLevelCap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := NewRecordEncoder(8, maxLevelsAt8, unitNormalizer(1), 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*MaxLevelMemory {
		t.Fatalf("encoder with %d levels allocated %d bytes, over 3 × the %d-byte cap", maxLevelsAt8, got, MaxLevelMemory)
	}
	runtime.KeepAlive(e)
}

func TestEncodeIntoValidatesShapes(t *testing.T) {
	e, err := NewRecordEncoder(512, 8, unitNormalizer(4), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeInto accepted a wrong-sized dst")
		}
	}()
	e.EncodeInto(bitvec.New(256), randFeatures(4, 1), nil)
}
