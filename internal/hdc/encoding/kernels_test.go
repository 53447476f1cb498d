package encoding

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hdc"
	"repro/internal/stats"
)

// encodeRef is the reference record encoder: the textbook bind then
// bundle, counted one bit at a time with no striping, no carry-save
// tree and no batching. The base and level vectors are regenerated from
// the seed, so nothing the encoder built is trusted. Ties at even
// feature counts set the even dimensions, as BindMemory.MajorityInto
// does.
func encodeRef(e *RecordEncoder, seed uint64, features []float64) *bitvec.Vector {
	items, err := hdc.NewItemMemory(e.Dimensions(), seed)
	if err != nil {
		panic(err)
	}
	levels, err := hdc.NewLevelMemory(e.Dimensions(), e.levels, seed^0xE7037ED1A0B428DB)
	if err != nil {
		panic(err)
	}
	counts := make([]int, e.Dimensions())
	for k, f := range features {
		bound := levels.Vector(levels.Quantize(f, e.lo, e.hi)).Xor(items.Vector(k))
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
			e, err := NewRecordEncoder(dims, nf, 8, 0, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]float64, MaxBatch+1)
			want := make([]*bitvec.Vector, len(rows))
			for i := range rows {
				rows[i] = randFeatures(nf, uint64(100*nf+dims+i))
				// Values outside [lo, hi] clamp to the end levels.
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

// TestEncodeCachedMatchesReference pins Encode and scratch-reusing
// EncodeInto to the reference.
func TestEncodeCachedMatchesReference(t *testing.T) {
	for _, nf := range []int{1, 7, 8, 20, 75} {
		e, err := NewRecordEncoder(2048, nf, 8, 0, 1, 42)
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
	e, err := NewRecordEncoder(1024, 30, 8, 0, 1, 7)
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
		e, err := NewRecordEncoder(c.dims, c.features, 8, 0, 1, 3)
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
	if _, err := NewRecordEncoder(1024, 1, 1<<20, 0, 1, 1); err == nil {
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
	e, err := NewRecordEncoder(8, 1, maxLevelsAt8, 0, 1, 1)
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
	e, err := NewRecordEncoder(512, 4, 8, 0, 1, 5)
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

func TestNormalizerApplyIntoMatchesApply(t *testing.T) {
	n, err := FitNormalizer([][]float64{{0, 10, -5}, {2, 20, 5}})
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{1, 25, 0}
	want := n.Apply(row)
	dst := make([]float64, 3)
	n.ApplyInto(dst, row)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("feature %d: ApplyInto %v != Apply %v", i, dst[i], want[i])
		}
	}
}
