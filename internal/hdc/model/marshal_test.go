package model

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

func trainedForMarshal(t *testing.T) *Model {
	t.Helper()
	rng := stats.NewRNG(80)
	m, _ := New(3, 257) // odd dims exercises the tail word
	tr := []*bitvec.Vector{
		bitvec.Random(257, rng), bitvec.Random(257, rng), bitvec.Random(257, rng),
	}
	if err := m.Train(tr, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteReadDeployedRoundTrip(t *testing.T) {
	m := trainedForMarshal(t)
	var buf bytes.Buffer
	if err := m.WriteDeployed(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadDeployed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Classes() != 3 || loaded.Dimensions() != 257 {
		t.Fatal("shape lost")
	}
	for c := 0; c < 3; c++ {
		if !loaded.ClassVector(c).Equal(m.ClassVector(c)) {
			t.Fatalf("class %d differs after round trip", c)
		}
	}
}

func TestWriteDeployedUntrained(t *testing.T) {
	m, _ := New(2, 64)
	var buf bytes.Buffer
	if err := m.WriteDeployed(&buf); err == nil {
		t.Fatal("untrained model serialized")
	}
}

func TestReadDeployedRejectsGarbage(t *testing.T) {
	if _, err := ReadDeployed(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("short input accepted")
	}
	m := trainedForMarshal(t)
	var buf bytes.Buffer
	if err := m.WriteDeployed(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bad magic.
	broken := append([]byte(nil), data...)
	broken[0] ^= 0xFF
	if _, err := ReadDeployed(bytes.NewReader(broken)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated class payload.
	if _, err := ReadDeployed(bytes.NewReader(data[:len(data)-8])); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Implausible class count.
	broken = append([]byte(nil), data...)
	broken[8] = 0xFF
	broken[9] = 0xFF
	broken[10] = 0xFF
	if _, err := ReadDeployed(bytes.NewReader(broken)); err == nil {
		t.Fatal("implausible shape accepted")
	}
}

func TestReadDeployedModelIsUsable(t *testing.T) {
	m := trainedForMarshal(t)
	var buf bytes.Buffer
	if err := m.WriteDeployed(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadDeployed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(81)
	q := bitvec.Random(257, rng)
	if loaded.Predict(q) != m.Predict(q) {
		t.Fatal("loaded model predicts differently")
	}
	// A loaded model cannot Retrain (counters were not persisted) but
	// must not corrupt state trying: Retrain works mechanically from
	// zeroed counters, so just confirm the attackable surface works.
	loaded.ClassVector(0).Flip(0)
	snap := loaded.SnapshotDeployed()
	loaded.RestoreDeployed(snap)
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgedImage encodes header words followed by nothing else: a shape
// claim with no data behind it.
func forgedImage(words ...uint64) []byte {
	var out []byte
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// maxBlob is the largest vector blob length the readers accept for
// dims bits.
func maxBlob(dims uint64) uint64 { return 16 + 8*(dims/64+1) + 64 }

// TestReadDeployedBoundsAllocation feeds headers whose shape claims
// far outrun their payload: the reader must fail having allocated in
// proportion to the bytes it read, not to the claim.
func TestReadDeployedBoundsAllocation(t *testing.T) {
	const bound = 1 << 20
	for name, img := range map[string][]byte{
		"classes": forgedImage(deployedMagic, 512, 1<<16),
		"blob":    forgedImage(deployedMagic, 2, 1<<24, maxBlob(1<<24)),
	} {
		var err error
		got := allocatedBy(func() { _, err = ReadDeployed(bytes.NewReader(img)) })
		if err == nil {
			t.Fatalf("%s: forged header accepted", name)
		}
		if got > bound {
			t.Fatalf("%s: failing read allocated %d bytes, want <= %d", name, got, bound)
		}
	}
}
