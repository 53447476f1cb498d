// Electricity mirrors the paper's PECAN dataset in its native form —
// urban electricity-load *prediction* — using hyperdimensional
// regression (RegHD-style, the paper's reference [8]). A synthetic
// city block's load is a smooth function of weather, time-of-day, and
// occupancy features; the regressor is trained, quantized to its
// deployed 8-bit form, and then attacked to show that the graceful-
// degradation story carries over from classification to regression.
//
// Run with: go run ./examples/electricity
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/hdc/encoding"
	"repro/internal/hdc/regress"
	"repro/internal/stats"
)

const (
	dims     = 8192
	features = 16
	nTrain   = 500
	nTest    = 200
)

func main() {
	// The synthetic channels are already in [0, 1]: a unit range per
	// feature encodes them as they are.
	zeros, ones := make([]float64, features), make([]float64, features)
	for j := range ones {
		ones[j] = 1
	}
	norm, err := encoding.NormalizerFromRanges(zeros, ones)
	if err != nil {
		log.Fatal(err)
	}
	enc, err := encoding.NewRecordEncoder(dims, 16, norm, 31)
	if err != nil {
		log.Fatal(err)
	}
	rng := stats.NewRNG(32)
	trainH, trainY := drawLoadData(enc, nTrain, rng)
	testH, testY := drawLoadData(enc, nTest, rng)

	r, err := regress.Train(trainH, trainY, regress.Config{Epochs: 30, LearningRate: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test R²:                 %.3f (MSE %.4f)\n", r.R2(testH, testY), r.MSE(testH, testY))

	deployed := r.Deploy()
	fmt.Printf("deployed (8-bit) MSE:    %.4f\n", deployed.MSE(testH, testY))

	for _, rate := range []float64{0.05, 0.10, 0.20} {
		d := deployed.Clone()
		if _, err := attack.Random(d, rate, stats.NewRNG(uint64(100+rate*100))); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MSE after %4.0f%% flips:    %.4f\n", rate*100, d.MSE(testH, testY))
	}
	fmt.Println("\nbit flips nudge the regression instead of exploding it: every")
	fmt.Println("dimension carries 1/D of the prediction, so there is no exponent")
	fmt.Println("bit whose flip multiplies the forecast by 2^128")
}

// drawLoadData synthesizes load-prediction samples: features are
// normalized weather/time/occupancy channels; the load combines a
// daily cycle, a temperature response, and occupancy effects.
func drawLoadData(enc *encoding.RecordEncoder, n int, rng interface {
	Float64() float64
	NormFloat64() float64
}) ([]*bitvec.Vector, []float64) {
	hs := make([]*bitvec.Vector, n)
	ys := make([]float64, n)
	for i := range hs {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.Float64()
		}
		hour := x[0]       // time of day
		temp := x[1]       // outside temperature
		occupancy := x[2]  // building occupancy
		industrial := x[3] // industrial duty cycle
		load := 2.0 +
			1.5*math.Sin(2*math.Pi*hour) + // daily cycle
			2.0*(temp-0.5)*(temp-0.5)*4 + // HVAC response: U-shaped in temperature
			1.2*occupancy +
			0.8*industrial*occupancy +
			0.1*rng.NormFloat64()
		hs[i] = enc.Encode(x)
		ys[i] = load
	}
	return hs, ys
}
