package attack

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/fixed"
	"repro/internal/hdc/model"
	"repro/internal/stats"
)

// fakeImage records flips for contract tests.
type fakeImage struct {
	elements int
	bits     int
	order    []int
	flips    map[[2]int]int
}

func newFake(elements, bits int) *fakeImage {
	order := make([]int, bits)
	for i := range order {
		order[i] = bits - 1 - i // MSB first
	}
	return &fakeImage{elements: elements, bits: bits, order: order, flips: map[[2]int]int{}}
}

func (f *fakeImage) Elements() int         { return f.elements }
func (f *fakeImage) BitsPerElement() int   { return f.bits }
func (f *fakeImage) BitDamageOrder() []int { return f.order }
func (f *fakeImage) FlipBit(i, b int)      { f.flips[[2]int{i, b}]++ }
func (f *fakeImage) totalFlips() int {
	n := 0
	for _, c := range f.flips {
		n += c
	}
	return n
}

func TestRandomFlipsExactCount(t *testing.T) {
	img := newFake(1000, 8)
	res, err := Random(img, 0.1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// 10% of 8000 stored bits.
	if res.BitsFlipped != 800 || img.totalFlips() != 800 {
		t.Fatalf("flipped %d bits (reported %d), want 800", img.totalFlips(), res.BitsFlipped)
	}
	if res.ElementsHit == 0 || res.ElementsHit > 800 {
		t.Fatalf("ElementsHit = %d", res.ElementsHit)
	}
}

func TestRandomHitsDistinctBits(t *testing.T) {
	img := newFake(100, 8)
	if _, err := Random(img, 1.0, stats.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	// Rate 1.0 flips every (element, bit) position exactly once.
	if len(img.flips) != 800 || img.totalFlips() != 800 {
		t.Fatalf("flips %d over %d positions, want 800 distinct", img.totalFlips(), len(img.flips))
	}
	for key, n := range img.flips {
		if n != 1 {
			t.Fatalf("position %v flipped %d times", key, n)
		}
	}
}

func TestRandomUsesAllBitPositions(t *testing.T) {
	img := newFake(10000, 8)
	if _, err := Random(img, 1.0, stats.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	positions := map[int]int{}
	for key := range img.flips {
		positions[key[1]]++
	}
	if len(positions) != 8 {
		t.Fatalf("random attack used %d bit positions, want 8", len(positions))
	}
}

func TestTargetedStartsAtWorstBit(t *testing.T) {
	img := newFake(500, 8)
	// 5% of 4000 bits = 200 flips < 500 elements: all land on the
	// most damaging position of distinct elements.
	res, err := Targeted(img, 0.05, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsFlipped != 200 || res.ElementsHit != 200 {
		t.Fatalf("flipped %d bits on %d elements, want 200/200", res.BitsFlipped, res.ElementsHit)
	}
	for key := range img.flips {
		if key[1] != 7 {
			t.Fatalf("targeted attack flipped bit %d, want only 7", key[1])
		}
	}
}

func TestTargetedSpillsToNextBit(t *testing.T) {
	img := newFake(100, 8)
	// 150 flips > 100 elements: 100 at bit 7, 50 at bit 6.
	if _, err := Targeted(img, 150.0/800.0, stats.NewRNG(4)); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for key := range img.flips {
		counts[key[1]]++
	}
	if counts[7] != 100 || counts[6] != 50 {
		t.Fatalf("spill wrong: %v", counts)
	}
}

func TestRateValidation(t *testing.T) {
	img := newFake(10, 8)
	if _, err := Random(img, -0.1, stats.NewRNG(5)); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := Targeted(img, 1.1, stats.NewRNG(5)); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

func TestZeroRateNoFlips(t *testing.T) {
	img := newFake(10, 8)
	res, err := Random(img, 0, stats.NewRNG(6))
	if err != nil || res.BitsFlipped != 0 || img.totalFlips() != 0 {
		t.Fatalf("zero rate: %+v flips %d err %v", res, img.totalFlips(), err)
	}
}

func TestBadDamageOrderRejected(t *testing.T) {
	img := newFake(10, 8)
	img.order = []int{7, 6} // wrong length
	if _, err := Targeted(img, 0.5, stats.NewRNG(7)); err == nil {
		t.Fatal("short damage order accepted")
	}
	img.order = []int{7, 7, 6, 5, 4, 3, 2, 1} // duplicate
	if _, err := Random(img, 0.5, stats.NewRNG(7)); err == nil {
		t.Fatal("duplicate damage order accepted")
	}
	img.order = []int{8, 6, 5, 4, 3, 2, 1, 0} // out of range
	if _, err := Random(img, 0.5, stats.NewRNG(7)); err == nil {
		t.Fatal("out-of-range damage order accepted")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() map[[2]int]int {
		img := newFake(200, 8)
		Random(img, 0.3, stats.NewRNG(42))
		return img.flips
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different flip counts for same seed")
	}
	for k := range a {
		if b[k] != a[k] {
			t.Fatal("different flips for same seed")
		}
	}
}

func TestBurstClustersDamage(t *testing.T) {
	img := newFake(1000, 1)
	rng := stats.NewRNG(4)
	res, err := Burst(img, 0.1, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsFlipped == 0 {
		t.Fatal("burst flipped nothing")
	}
	// All hits must land inside one contiguous 100-element span.
	lo, hi := 1<<30, -1
	for key := range img.flips {
		if key[0] < lo {
			lo = key[0]
		}
		if key[0] > hi {
			hi = key[0]
		}
	}
	if hi-lo >= 100 {
		t.Fatalf("burst spanned [%d,%d], want within 100 elements", lo, hi)
	}
	// Expected ~50 of 100 elements hit at flipProb 0.5.
	if res.ElementsHit < 25 || res.ElementsHit > 75 {
		t.Fatalf("ElementsHit = %d", res.ElementsHit)
	}
}

func TestBurstValidation(t *testing.T) {
	img := newFake(10, 1)
	rng := stats.NewRNG(5)
	if _, err := Burst(img, 0, 0.5, rng); err == nil {
		t.Fatal("zero span accepted")
	}
	if _, err := Burst(img, 0.5, 1.5, rng); err == nil {
		t.Fatal("bad probability accepted")
	}
}

func TestBurstFullSpan(t *testing.T) {
	img := newFake(10, 2)
	rng := stats.NewRNG(6)
	if _, err := Burst(img, 1.0, 1.0, rng); err != nil {
		t.Fatal(err)
	}
	if len(img.flips) != 20 {
		t.Fatalf("full burst flipped %d positions, want 20", len(img.flips))
	}
}

func trainedBinary(t *testing.T) *model.Model {
	t.Helper()
	rng := stats.NewRNG(8)
	m, _ := model.New(2, 1024)
	tr := []*bitvec.Vector{bitvec.Random(1024, rng), bitvec.Random(1024, rng)}
	if err := m.Train(tr, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBinaryModelAdapter(t *testing.T) {
	m := trainedBinary(t)
	img := NewBinaryModel(m)
	if img.Elements() != 2048 || img.BitsPerElement() != 1 || len(img.BitDamageOrder()) != 1 {
		t.Fatal("adapter contract wrong")
	}
	before := []*bitvec.Vector{m.ClassVector(0).Clone(), m.ClassVector(1).Clone()}
	res, err := Random(img, 0.1, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	changed := m.ClassVector(0).Hamming(before[0]) + m.ClassVector(1).Hamming(before[1])
	if changed != res.BitsFlipped {
		t.Fatalf("flipped %d bits in model, reported %d", changed, res.BitsFlipped)
	}
}

// TestBinaryModelRandomEqualsTargetedDamage pins the paper's key
// observation at the bit level: on a 1-bit image the worst-case bit of
// an element is its only bit, so with one seed Random and Targeted flip
// exactly the same bits and report the same Result, on either row
// source and at every rate.
func TestBinaryModelRandomEqualsTargetedDamage(t *testing.T) {
	sources := []struct {
		name  string
		image func() *BinaryModel
	}{
		{"dense", func() *BinaryModel { return NewBinaryModel(trainedBinary(t)) }},
		{"loghd", func() *BinaryModel {
			l, err := model.CompressLogHD(trainedBinary(t), 0)
			if err != nil {
				t.Fatal(err)
			}
			return NewLogHDPlanes(l)
		}},
	}
	for _, src := range sources {
		for _, rate := range []float64{0, 0.001, 0.05, 0.5, 1} {
			imgR, imgT := src.image(), src.image()
			resR, err := Random(imgR, rate, stats.NewRNG(10))
			if err != nil {
				t.Fatal(err)
			}
			resT, err := Targeted(imgT, rate, stats.NewRNG(10))
			if err != nil {
				t.Fatal(err)
			}
			if resR != resT {
				t.Fatalf("%s rate %v: random %+v, targeted %+v", src.name, rate, resR, resT)
			}
			if want := int(rate * float64(imgR.Elements())); resR.BitsFlipped != want {
				t.Fatalf("%s rate %v: flipped %d bits, want %d", src.name, rate, resR.BitsFlipped, want)
			}
			for i := 0; i < imgR.Elements(); i++ {
				if imgR.BitValue(i, 0) != imgT.BitValue(i, 0) {
					t.Fatalf("%s rate %v: element %d differs between random and targeted", src.name, rate, i)
				}
			}
		}
	}
}

func TestBinaryModelAdapterPanicsOnBadBit(t *testing.T) {
	m := trainedBinary(t)
	img := NewBinaryModel(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	img.FlipBit(0, 1)
}

// TestBinaryModelReadsRowsAtCallTime: the adapter addresses rows
// row-major over either source and fetches each row when it flips or
// reads, so a row pointer swapped in after construction is the row it
// touches.
func TestBinaryModelReadsRowsAtCallTime(t *testing.T) {
	m := trainedBinary(t)
	img := NewBinaryModel(m)
	swapped := m.ClassVector(1).Clone()
	m.SetClassVector(1, swapped)
	before := swapped.Get(5)
	img.FlipBit(1024+5, 0)
	if swapped.Get(5) == before || img.BitValue(1024+5, 0) == before {
		t.Fatal("flip missed the swapped-in class vector")
	}

	l, err := model.CompressLogHD(trainedBinary(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	planes := NewLogHDPlanes(l)
	if planes.Elements() != l.Planes()*1024 {
		t.Fatalf("LogHD elements %d, want %d", planes.Elements(), l.Planes()*1024)
	}
	last := planes.Elements() - 1
	before = l.PlaneVector(l.Planes() - 1).Get(1023)
	planes.FlipBit(last, 0)
	if l.PlaneVector(l.Planes()-1).Get(1023) == before || planes.BitValue(last, 0) == before {
		t.Fatal("flip missed the last plane's last bit")
	}
}

func TestQuantizedModelAdapter(t *testing.T) {
	m := trainedBinary(t)
	q, err := model.QuantizeModel(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	img := NewQuantizedModel(q)
	if img.Elements() != 2048 || img.BitsPerElement() != 2 {
		t.Fatal("adapter contract wrong")
	}
	if order := img.BitDamageOrder(); len(order) != 2 || order[0] != 0 {
		t.Fatalf("damage order %v, want sign bit first", order)
	}
	before := q.Level(0, 0)
	img.FlipBit(0, 0) // sign bit of class 0, dim 0
	if (q.Level(0, 0) < 0) == (before < 0) {
		t.Fatal("sign flip did not change sign")
	}
}

func TestFixedTensorSatisfiesImage(t *testing.T) {
	var _ Image = fixed.Quantize([]float64{1})
	var _ Image = fixed.NewFloat32Image([]float64{1})
}

func TestTargetedFixedTensorMoreDamaging(t *testing.T) {
	// Per flip, targeted (sign-bit) attacks must change fixed-point
	// values more than random bit choices — the asymmetry the paper
	// reports for DNN/SVM/AdaBoost but not HDC.
	vals := make([]float64, 2000)
	rng := stats.NewRNG(12)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.05
	}
	damage := func(targeted bool) float64 {
		tn := fixed.Quantize(vals)
		var res Result
		var err error
		if targeted {
			res, err = Targeted(tn, 0.05, stats.NewRNG(13))
		} else {
			res, err = Random(tn, 0.05, stats.NewRNG(13))
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.BitsFlipped != 800 {
			t.Fatalf("budget mismatch: %d flips", res.BitsFlipped)
		}
		var sum float64
		for i, v := range vals {
			d := tn.Value(i) - v
			sum += d * d
		}
		return sum
	}
	if damage(true) <= damage(false) {
		t.Fatal("per-flip, targeted attack not more damaging than random")
	}
}
