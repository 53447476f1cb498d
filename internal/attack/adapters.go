package attack

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/hdc/model"
)

// BinaryModel adapts a deployed binary memory to the Image interface:
// one element per (row, dimension) bit, row-major. The rows are a
// dense model's class hypervectors or a LogHD deployment's base
// planes. With a single bit per element, random and targeted attacks
// are identical — the holographic-representation property the paper
// exploits.
type BinaryModel struct {
	rows, dims int
	// Exactly one source is set. Rows are fetched at call time:
	// restores and SetClassVector replace row pointers, so none is
	// held across calls.
	m *model.Model
	l *model.LogHD
}

// NewBinaryModel wraps a trained model's deployed class hypervectors.
func NewBinaryModel(m *model.Model) *BinaryModel {
	return &BinaryModel{rows: m.Classes(), dims: m.Dimensions(), m: m}
}

// NewLogHDPlanes wraps a compressed deployment's base planes. The
// compressed representation concentrates the whole class memory into
// n ≈ log2 k planes, so the same flipped-bit budget touches a far
// larger fraction of the deployed state than on the dense model —
// the robustness price of compression the experiments measure.
func NewLogHDPlanes(l *model.LogHD) *BinaryModel {
	return &BinaryModel{rows: l.Planes(), dims: l.Dimensions(), l: l}
}

// Elements returns rows × dimensions.
func (b *BinaryModel) Elements() int { return b.rows * b.dims }

// BitsPerElement returns 1.
func (b *BinaryModel) BitsPerElement() int { return 1 }

// BitDamageOrder returns the single bit — every bit carries equal
// weight in a holographic representation.
func (b *BinaryModel) BitDamageOrder() []int { return []int{0} }

// at validates an (element, bit) address and returns the element's row,
// fetched now, and its offset in that row. An out-of-range element
// index must never be truncated into a neighboring row's dimension
// range, so both coordinates panic loudly instead.
func (b *BinaryModel) at(i, bit int) (*bitvec.Vector, int) {
	if i < 0 || i >= b.Elements() {
		panic(fmt.Sprintf("attack: element %d out of range [0,%d)", i, b.Elements()))
	}
	if bit != 0 {
		panic(fmt.Sprintf("attack: binary element has no bit %d", bit))
	}
	if b.l != nil {
		return b.l.PlaneVector(i / b.dims), i % b.dims
	}
	return b.m.ClassVector(i / b.dims), i % b.dims
}

// FlipBit flips the single bit of element i.
func (b *BinaryModel) FlipBit(i, bit int) {
	v, j := b.at(i, bit)
	v.Flip(j)
}

// BitValue reports the stored value of element i's single bit. The
// substrate fault processes read it to model physically faithful
// faults: DRAM decay discharges a cell toward a fixed leak value (a
// flip only when the stored bit disagrees), and worn NVM cells latch
// the value they held when they failed.
func (b *BinaryModel) BitValue(i, bit int) bool {
	v, j := b.at(i, bit)
	return v.Get(j)
}

// QuantizedModel adapts a b-bit quantized HDC deployment to the Image
// interface: one element per (class, dimension) level, b bits wide,
// with the sign bit (position 0 in the stored layout) as the critical
// bit.
type QuantizedModel struct {
	q *model.Quantized
}

// NewQuantizedModel wraps a quantized deployment.
func NewQuantizedModel(q *model.Quantized) *QuantizedModel { return &QuantizedModel{q: q} }

// Elements returns classes × dimensions.
func (a *QuantizedModel) Elements() int { return a.q.Classes() * a.q.Dimensions() }

// BitsPerElement returns the quantization width.
func (a *QuantizedModel) BitsPerElement() int { return a.q.Bits() }

// BitDamageOrder returns the sign bit (position 0 of the stored
// sign-magnitude layout) first, then magnitude bits from the top down.
func (a *QuantizedModel) BitDamageOrder() []int {
	order := []int{0}
	for b := a.q.Bits() - 1; b >= 1; b-- {
		order = append(order, b)
	}
	return order
}

// checkAddr validates an (element, bit) address before it is folded
// into a global bit index: without it, a bit >= Bits() would silently
// land in the next element — memory corruption of a neighboring
// dimension (or class) rather than a clear failure.
func (a *QuantizedModel) checkAddr(i, bit int) {
	if i < 0 || i >= a.Elements() {
		panic(fmt.Sprintf("attack: element %d out of range [0,%d)", i, a.Elements()))
	}
	if bit < 0 || bit >= a.q.Bits() {
		panic(fmt.Sprintf("attack: bit %d out of range [0,%d)", bit, a.q.Bits()))
	}
}

// FlipBit flips bit within element i of the deployed image.
func (a *QuantizedModel) FlipBit(i, bit int) {
	a.checkAddr(i, bit)
	a.q.FlipBit(i*a.q.Bits() + bit)
}

// BitValue reports the stored value of bit within element i.
func (a *QuantizedModel) BitValue(i, bit int) bool {
	a.checkAddr(i, bit)
	return a.q.Bit(i*a.q.Bits() + bit)
}
