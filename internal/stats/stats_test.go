package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestNewRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical draws", same)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	s := Softmax([]float64{1, 2, 3, 4})
	var sum float64
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("softmax not monotone for monotone input: %v", s)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	s := Softmax([]float64{1000, 1001})
	if math.IsNaN(s[0]) || math.IsNaN(s[1]) {
		t.Fatalf("softmax overflowed: %v", s)
	}
	if s[1] <= s[0] {
		t.Fatalf("ordering lost: %v", s)
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	if got := Softmax(nil); len(got) != 0 {
		t.Fatalf("softmax(nil) = %v, want empty", got)
	}
}

func TestSoftmaxPropertySumAndRange(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 500 {
				return true // skip degenerate draws
			}
		}
		s := Softmax([]float64{a, b, c})
		var sum float64
		for _, v := range s {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{5}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{3, 3, 3}, 0}, // ties -> lowest index
		{[]float64{-2, -1, -3}, 1},
	}
	for _, c := range cases {
		if got := ArgMax(c.in); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMeanStdDevMedian(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(x); math.Abs(got-2.138089935299395) > 1e-9 {
		t.Errorf("StdDev = %v", got)
	}
	if got := Median(x); got != 4.5 {
		t.Errorf("Median = %v, want 4.5", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-input summaries should be 0")
	}
}

// TestSEMAndCohensD checks both against hand-computed values.
func TestSEMAndCohensD(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	// Squared deviations from the mean 5 sum to 32: s² = 32/7, so
	// SEM = sqrt(32/7/8) = sqrt(4/7).
	if got := SEM([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !near(got, math.Sqrt(4.0/7)) {
		t.Errorf("SEM = %v, want sqrt(4/7)", got)
	}
	if SEM(nil) != 0 || SEM([]float64{3}) != 0 {
		t.Error("SEM of fewer than two values is not 0")
	}
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{3, 4, 5}, -2}, // means 2 and 4, s = 1 each
		// means 4 and 3; pooled s² = (2·4 + 4·2.5)/6 = 3
		{[]float64{2, 4, 6}, []float64{1, 2, 3, 4, 5}, 1 / math.Sqrt(3)},
		{[]float64{1, 1}, []float64{1, 1}, 0},
		{[]float64{1, 1}, []float64{2, 2}, math.Inf(-1)},
		{[]float64{3, 3, 3}, []float64{2}, math.Inf(1)},
	}
	for _, c := range cases {
		got := CohensD(c.a, c.b)
		if !near(got, c.want) && got != c.want {
			t.Errorf("CohensD(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	for _, c := range [][2][]float64{{{1}, {2}}, {nil, {1, 2, 3}}, {{1, 2}, nil}} {
		if got := CohensD(c[0], c[1]); !math.IsNaN(got) {
			t.Errorf("CohensD(%v, %v) = %v, want NaN", c[0], c[1], got)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	x := []float64{3, 1, 2}
	Median(x)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Fatalf("Median mutated input: %v", x)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp misbehaved")
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestConfusionMatrixAndF1(t *testing.T) {
	pred := []int{0, 1, 1, 0}
	label := []int{0, 1, 0, 0}
	cm := ConfusionMatrix(pred, label, 2)
	if cm[0][0] != 2 || cm[0][1] != 1 || cm[1][1] != 1 || cm[1][0] != 0 {
		t.Fatalf("confusion matrix wrong: %v", cm)
	}
	f1 := MacroF1(cm)
	// class0: prec 1, rec 2/3 -> f1 0.8; class1: prec 0.5, rec 1 -> 2/3.
	want := (0.8 + 2.0/3) / 2
	if math.Abs(f1-want) > 1e-12 {
		t.Fatalf("MacroF1 = %v, want %v", f1, want)
	}
}

func TestQualityLoss(t *testing.T) {
	if got := QualityLoss(0.95, 0.90); math.Abs(got-5) > 1e-9 {
		t.Fatalf("QualityLoss = %v, want 5", got)
	}
	if QualityLoss(0.90, 0.95) != 0 {
		t.Fatal("negative loss should floor at 0")
	}
}

func TestLinspace(t *testing.T) {
	x := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("Linspace = %v", x)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("a", "1")
	tab.AddRow("bbbb", "22")
	out := tab.Render()
	if out == "" || tab.NumRows() != 2 {
		t.Fatal("table did not render")
	}
	for _, want := range []string{"Demo", "name", "bbbb", "22"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPctFormatting(t *testing.T) {
	if Pct(0.0312) != "3.12%" {
		t.Fatalf("Pct = %q", Pct(0.0312))
	}
	if PctPoints(3.1) != "3.10%" {
		t.Fatalf("PctPoints = %q", PctPoints(3.1))
	}
}
