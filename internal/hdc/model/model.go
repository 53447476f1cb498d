// Package model implements the hyperdimensional classifier of
// Section 3.1: class hypervectors built by bundling encoded training
// samples, optional mistake-driven retraining, a binarized deployment
// form (the representation the paper attacks and recovers), and a
// b-bit quantized deployment form for the precision sweep of Table 1.
package model

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
)

// Model is an HDC classifier. The integer counters are the training
// state; the binarized class hypervectors produced by Binarize are the
// deployed model that lives in (attackable) memory.
type Model struct {
	dims     int
	classes  int
	counters []*bitvec.Counter
	deployed []*bitvec.Vector

	// pool holds the scoring scratch and the vectors of the images an
	// EpochChain publishes from this model.
	pool *FrozenPool

	// delta holds *trainDelta scratch (per-worker class-delta counters
	// plus scoring buffers) so the map phase of the sharded training
	// pipeline (parallel.go) allocates nothing in steady state.
	delta sync.Pool
}

// New returns an untrained model for the given class count and
// hypervector dimensionality.
func New(classes, dims int) (*Model, error) {
	if classes < 2 {
		return nil, fmt.Errorf("model: need at least 2 classes, got %d", classes)
	}
	if dims <= 0 {
		return nil, fmt.Errorf("model: dimensions must be positive, got %d", dims)
	}
	m := &Model{dims: dims, classes: classes, pool: NewFrozenPool(classes, dims)}
	m.counters = make([]*bitvec.Counter, classes)
	for c := range m.counters {
		m.counters[c] = bitvec.NewCounter(dims)
	}
	return m, nil
}

// Dimensions returns the hypervector dimensionality D.
func (m *Model) Dimensions() int { return m.dims }

// Classes returns the number of classes k.
func (m *Model) Classes() int { return m.classes }

// StorageBits returns the deployed memory footprint in bits: k class
// hypervectors of D bits each. This counts only the attackable
// deployment, not the integer training counters — it is the dense
// baseline LogHD.StorageBits is compared against.
func (m *Model) StorageBits() int { return m.classes * m.dims }

// Train accumulates each encoded sample into its class counter
// (single-pass bundling: C_l = Σ H_j over samples with label l) and
// binarizes. It returns an error on shape or label problems.
func (m *Model) Train(encoded []*bitvec.Vector, labels []int) error {
	if len(encoded) != len(labels) {
		return fmt.Errorf("model: %d samples but %d labels", len(encoded), len(labels))
	}
	if len(encoded) == 0 {
		return fmt.Errorf("model: no training samples")
	}
	for i, h := range encoded {
		y := labels[i]
		if y < 0 || y >= m.classes {
			return fmt.Errorf("model: label %d out of range [0,%d)", y, m.classes)
		}
		if h.Len() != m.dims {
			return fmt.Errorf("model: sample %d has %d dims, want %d", i, h.Len(), m.dims)
		}
		m.counters[y].Add(h)
	}
	m.Binarize()
	return nil
}

// Retrain performs mistake-driven refinement for the given number of
// epochs: each misclassified sample is added to its true class counter
// and subtracted from the wrongly predicted one, then the model is
// re-binarized after every epoch (predictions during an epoch use the
// binarized deployed model, matching inference). It returns the number
// of mistakes in the final epoch.
func (m *Model) Retrain(encoded []*bitvec.Vector, labels []int, epochs int) (int, error) {
	if len(encoded) != len(labels) {
		return 0, fmt.Errorf("model: %d samples but %d labels", len(encoded), len(labels))
	}
	if m.deployed == nil {
		return 0, fmt.Errorf("model: Retrain before Train")
	}
	mistakes := 0
	for e := 0; e < epochs; e++ {
		mistakes = 0
		v := m.view() // the deployed rows change only at Binarize
		for i, h := range encoded {
			y := labels[i]
			pred := v.Predict(h)
			if pred == y {
				continue
			}
			mistakes++
			m.counters[y].Add(h)
			m.counters[pred].Sub(h)
		}
		m.Binarize()
		if mistakes == 0 {
			break
		}
	}
	return mistakes, nil
}

// Binarize refreshes the deployed binary class hypervectors from the
// training counters (majority threshold per dimension).
func (m *Model) Binarize() {
	if m.deployed == nil {
		m.deployed = make([]*bitvec.Vector, m.classes)
	}
	for c := range m.counters {
		m.binarizeClass(c)
	}
}

// binarizeClass refreshes one class's deployed vector.
func (m *Model) binarizeClass(c int) {
	if m.deployed == nil {
		m.deployed = make([]*bitvec.Vector, m.classes)
	}
	m.deployed[c] = m.counters[c].Threshold()
}

// ClassVector returns the deployed binary hypervector for class c.
// This is the attackable memory image: attackers flip its bits and the
// recovery framework rewrites them in place.
func (m *Model) ClassVector(c int) *bitvec.Vector {
	if m.deployed == nil {
		panic("model: not trained")
	}
	return m.deployed[c]
}

// SetClassVector replaces the deployed hypervector for class c (used
// when restoring a snapshot). The vector is used directly, not copied.
func (m *Model) SetClassVector(c int, v *bitvec.Vector) {
	if v.Len() != m.dims {
		panic(fmt.Sprintf("model: vector has %d dims, want %d", v.Len(), m.dims))
	}
	if m.deployed == nil {
		m.deployed = make([]*bitvec.Vector, m.classes)
	}
	m.deployed[c] = v
}

// SnapshotDeployed returns deep copies of the deployed class vectors.
func (m *Model) SnapshotDeployed() []*bitvec.Vector {
	if m.deployed == nil {
		panic("model: not trained")
	}
	out := make([]*bitvec.Vector, m.classes)
	for c, v := range m.deployed {
		out[c] = v.Clone()
	}
	return out
}

// RestoreDeployed installs deep copies of the given vectors as the
// deployed model.
func (m *Model) RestoreDeployed(vs []*bitvec.Vector) {
	if len(vs) != m.classes {
		panic(fmt.Sprintf("model: snapshot has %d classes, want %d", len(vs), m.classes))
	}
	for c, v := range vs {
		m.SetClassVector(c, v.Clone())
	}
}

// Clone returns an independent deep copy of the model: training
// counters and deployed vectors are copied, scratch pools start empty.
// Cloned models let parallel experiment trials attack and recover
// private copies instead of serializing on a shared system.
func (m *Model) Clone() *Model {
	out := &Model{dims: m.dims, classes: m.classes, pool: NewFrozenPool(m.classes, m.dims)}
	out.counters = make([]*bitvec.Counter, m.classes)
	for c, cnt := range m.counters {
		out.counters[c] = cnt.Clone()
	}
	if m.deployed != nil {
		out.deployed = make([]*bitvec.Vector, m.classes)
		for c, v := range m.deployed {
			out.deployed[c] = v.Clone()
		}
	}
	return out
}

// Predict returns the class whose hypervector is nearest the query
// (the early-abandoning bitvec.Nearest kernel; ties to the lowest
// class index).
func (m *Model) Predict(q *bitvec.Vector) int { return m.view().Predict(q) }

// Accuracy evaluates classification accuracy on encoded queries,
// scoring large batches in parallel across all cores.
func (m *Model) Accuracy(qs []*bitvec.Vector, labels []int) float64 {
	return m.AccuracyParallel(qs, labels, 0)
}

// AccuracyParallel evaluates accuracy with an explicit scoring worker
// count (<= 0 selects GOMAXPROCS).
func (m *Model) AccuracyParallel(qs []*bitvec.Vector, labels []int, workers int) float64 {
	return m.view().AccuracyParallel(qs, labels, workers)
}

// DefaultConfidenceTemperature converts raw similarity values (which
// differ by only a few hundredths between classes) into softmax logits
// with a meaningful spread. δ′ = softmax(δ · temperature).
const DefaultConfidenceTemperature = 120

// PredictWithConfidence returns the predicted class and its softmax
// confidence δ′ = softmax(δ · temperature) (Section 4.1; temperature
// ≤ 0 selects DefaultConfidenceTemperature). The steady-state call
// allocates nothing.
func (m *Model) PredictWithConfidence(q *bitvec.Vector, temperature float64) (int, float64) {
	return m.view().PredictWithConfidence(q, temperature)
}
