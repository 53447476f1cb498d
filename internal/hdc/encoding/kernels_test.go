package encoding

import (
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hdc"
	"repro/internal/stats"
)

// encodeRef is the reference record encoder: the textbook bind then
// bundle, counted one bit at a time with no table, no carry-save tree
// and no batching. The base vectors are regenerated from the seed, so
// nothing the encoder built is trusted. Ties at even feature counts
// break by dimension parity, as PlaneCounter.Majority does.
func encodeRef(e *RecordEncoder, seed uint64, features []float64) *bitvec.Vector {
	items, err := hdc.NewItemMemory(e.Dimensions(), seed)
	if err != nil {
		panic(err)
	}
	counts := make([]int, e.Dimensions())
	for k, f := range features {
		bound := e.levels.Vector(e.levels.Quantize(f, e.lo, e.hi)).Xor(items.Vector(k))
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
// both sides of MaxBatch, EncodeInto and Encode, on the table path and
// the over-budget path. Feature counts straddle the eight-row group and
// the 64-row level-two fold, dimensions straddle the word boundary;
// even feature counts exercise the majority tie-break.
func TestEncodeBatchMatchesReference(t *testing.T) {
	const seed = 42
	dimsGrid := []int{1, 63, 64, 65, 100, 257, 10000}
	for _, nf := range []int{1, 2, 7, 8, 9, 63, 64, 65, 75, 561, 617} {
		for _, dims := range dimsGrid {
			table, err := NewRecordEncoder(dims, nf, 8, 0, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			over, err := newRecordEncoder(dims, nf, 8, 0, 1, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !table.BoundCacheEnabled() || over.BoundCacheEnabled() {
				t.Fatalf("nf=%d dims=%d: table built %v / %v, want true / false",
					nf, dims, table.BoundCacheEnabled(), over.BoundCacheEnabled())
			}
			rows := make([][]float64, MaxBatch+1)
			want := make([]*bitvec.Vector, len(rows))
			for i := range rows {
				rows[i] = randFeatures(nf, uint64(100*nf+dims+i))
				// Values outside [lo, hi] clamp to the end levels.
				rows[i][i%nf] = float64(i%3) - 0.5
				want[i] = encodeRef(table, seed, rows[i])
			}
			for name, e := range map[string]*RecordEncoder{"table": table, "over-budget": over} {
				scratch := e.NewScratch()
				for _, batch := range []int{1, 3, MaxBatch, MaxBatch + 1} {
					dsts := make([]*bitvec.Vector, batch)
					for i := range dsts {
						dsts[i] = bitvec.Random(dims, stats.NewRNG(uint64(i)))
					}
					e.EncodeBatchInto(dsts, rows[:batch], scratch)
					for i, got := range dsts {
						if !got.Equal(want[i]) {
							t.Fatalf("%s nf=%d dims=%d batch=%d: sample %d diverges from the reference", name, nf, dims, batch, i)
						}
					}
				}
				dst := bitvec.New(dims)
				e.EncodeInto(dst, rows[2], scratch)
				if !dst.Equal(want[2]) || !e.Encode(rows[1]).Equal(want[1]) {
					t.Fatalf("%s nf=%d dims=%d: single-sample encode diverges from the reference", name, nf, dims)
				}
			}
		}
	}
}

// TestEncodeCachedMatchesReference pins Encode and scratch-reusing
// EncodeInto, with and without the bound table, to the reference.
func TestEncodeCachedMatchesReference(t *testing.T) {
	for _, nf := range []int{1, 7, 8, 20, 75} {
		e, err := NewRecordEncoder(2048, nf, 8, 0, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !e.BoundCacheEnabled() {
			t.Fatalf("nf=%d: bound table should fit the default budget", nf)
		}
		uncached, err := newRecordEncoder(2048, nf, 8, 0, 1, 42, 0)
		if err != nil {
			t.Fatal(err)
		}
		scratch := e.NewScratch()
		dst := bitvec.New(2048)
		for trial := 0; trial < 10; trial++ {
			x := randFeatures(nf, uint64(100+trial))
			want := encodeRef(e, 42, x)
			if got := e.Encode(x); !got.Equal(want) {
				t.Fatalf("nf=%d trial %d: cached Encode diverges from reference", nf, trial)
			}
			if got := uncached.Encode(x); !got.Equal(want) {
				t.Fatalf("nf=%d trial %d: uncached Encode diverges from reference", nf, trial)
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
// allocates nothing, on either path.
func TestEncodeBatchIntoAllocs(t *testing.T) {
	for _, budget := range []int64{DefaultBoundCacheBudget, 0} {
		e, err := newRecordEncoder(2048, 75, 8, 0, 1, 3, budget)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, MaxBatch+3)
		dsts := make([]*bitvec.Vector, len(rows))
		for i := range rows {
			rows[i], dsts[i] = randFeatures(75, uint64(i)), bitvec.New(2048)
		}
		scratch := e.NewScratch()
		if allocs := testing.AllocsPerRun(20, func() { e.EncodeBatchInto(dsts, rows, scratch) }); allocs != 0 {
			t.Fatalf("budget %d: EncodeBatchInto allocated %v times per call", budget, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { e.EncodeInto(dsts[0], rows[0], scratch) }); allocs != 0 {
			t.Fatalf("budget %d: EncodeInto allocated %v times per call", budget, allocs)
		}
	}
}

func TestBoundCacheBudgetDisablesLargeTables(t *testing.T) {
	// 200k dims × 200 features × 64 levels ≈ 320 MB > 64 MiB budget.
	e, err := NewRecordEncoder(200000, 200, 64, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.BoundCacheEnabled() {
		t.Fatalf("table built for %d bytes over the %d budget",
			BoundCacheBytes(200000, 200, 64), int64(DefaultBoundCacheBudget))
	}
}

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
		{8, MaxLevelMemory, true},
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

func TestBoundCacheBytesFormula(t *testing.T) {
	// 10000 bits → 157 words → 1256 bytes per vector.
	if got, want := BoundCacheBytes(10000, 75, 8), int64(75*8*157*8); got != want {
		t.Fatalf("BoundCacheBytes = %d, want %d", got, want)
	}
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
