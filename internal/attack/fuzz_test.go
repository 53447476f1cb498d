package attack

import (
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hdc/model"
	"repro/internal/stats"
)

// fuzzImages builds the binary adapter over both of its row sources
// (a model's class vectors and a LogHD deployment's planes) and one
// quantized adapter, over small trained models shared (and freely
// mutated) across fuzz iterations — the property under test is
// addressing, not model content.
var fuzzImages struct {
	once sync.Once
	bin  []Image
	qnt  []Image
}

func fuzzImage(t *testing.T, quantized bool) []Image {
	t.Helper()
	f := &fuzzImages
	f.once.Do(func() {
		const classes, dims = 3, 192
		rng := stats.NewRNG(41)
		m, err := model.New(classes, dims)
		if err != nil {
			panic(err)
		}
		encoded := make([]*bitvec.Vector, 12)
		labels := make([]int, len(encoded))
		for i := range encoded {
			encoded[i] = bitvec.Random(dims, rng)
			labels[i] = i % classes
		}
		if err := m.Train(encoded, labels); err != nil {
			panic(err)
		}
		q, err := model.QuantizeModel(m, 4)
		if err != nil {
			panic(err)
		}
		l, err := model.CompressLogHD(m, 0)
		if err != nil {
			panic(err)
		}
		f.bin = []Image{NewBinaryModel(m), NewLogHDPlanes(l)}
		f.qnt = []Image{NewQuantizedModel(q)}
	})
	if quantized {
		return f.qnt
	}
	return f.bin
}

// FuzzFlipBit drives every Image adapter with arbitrary (element, bit)
// addresses; a binary input reaches both row sources. In-range
// addresses must flip exactly the addressed bit (observable through
// BitValue and reversible), out-of-range addresses must panic with the
// adapter's own message instead of silently corrupting a neighboring
// element, class or plane.
func FuzzFlipBit(f *testing.F) {
	f.Add(0, 0, false)
	f.Add(191, 0, false)
	f.Add(3*192, 0, false) // one past the end
	f.Add(-1, 0, true)
	f.Add(5, 4, true) // bit beyond the element width
	f.Add(17, 3, true)
	f.Add(2*192, 0, false) // one past the two LogHD planes
	f.Fuzz(func(t *testing.T, elem, bit int, quantized bool) {
		for _, img := range fuzzImage(t, quantized) {
			valid := elem >= 0 && elem < img.Elements() &&
				bit >= 0 && bit < img.BitsPerElement()

			flip := func() (panicked bool) {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				img.FlipBit(elem, bit)
				return false
			}

			if !valid {
				if !flip() {
					t.Fatalf("FlipBit(%d, %d) on %T (elements=%d bits=%d): out-of-range address did not panic",
						elem, bit, img, img.Elements(), img.BitsPerElement())
				}
				continue
			}

			reader := img.(interface{ BitValue(i, b int) bool })
			before := reader.BitValue(elem, bit)
			if flip() {
				t.Fatalf("FlipBit(%d, %d) on %T: in-range address panicked", elem, bit, img)
			}
			if after := reader.BitValue(elem, bit); after == before {
				t.Fatalf("FlipBit(%d, %d) on %T: bit unchanged (%v)", elem, bit, img, before)
			}
			// Flip back so shared state stays roughly balanced and the flip
			// is verified to be involutive.
			img.FlipBit(elem, bit)
			if again := reader.BitValue(elem, bit); again != before {
				t.Fatalf("FlipBit(%d, %d) on %T: double flip not identity", elem, bit, img)
			}
		}
	})
}
