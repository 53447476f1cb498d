package am_test

import (
	"fmt"

	"repro/internal/hdc/am"
	"repro/internal/hdc/encoding"
)

// The cleanup loop: encode two known records, store them, then recall
// the right one from a noisy observation.
func Example() {
	unit, _ := encoding.NormalizerFromRanges([]float64{0, 0, 0, 0}, []float64{1, 1, 1, 1})
	enc, _ := encoding.NewRecordEncoder(10000, 8, unit, 7)
	memory, _ := am.New(10000)

	_ = memory.Store("walking", enc.Encode([]float64{0.9, 0.1, 0.3, 0.2}))
	_ = memory.Store("sitting", enc.Encode([]float64{0.1, 0.8, 0.7, 0.9}))

	// A new observation near the "walking" record.
	noisy := enc.Encode([]float64{0.85, 0.15, 0.35, 0.2})
	best, ok := memory.RecallAbove(noisy, 0.7)

	fmt.Println("recalled:", ok, best.Name)
	fmt.Println("confident:", best.Similarity > 0.8)
	// Output:
	// recalled: true walking
	// confident: true
}
