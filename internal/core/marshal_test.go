package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"repro/internal/recovery"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s, ds := trainSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same predictions on every test sample.
	for i, x := range ds.TestX {
		if loaded.Predict(x) != s.Predict(x) {
			t.Fatalf("sample %d: loaded system disagrees", i)
		}
	}
	if loaded.Dimensions() != s.Dimensions() || loaded.Classes() != s.Classes() {
		t.Fatal("shape lost in round trip")
	}
}

func TestLoadedSystemEncodesIdentically(t *testing.T) {
	s, ds := trainSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The encoder is regenerated from (seed, config); encodings must
	// be bit-identical.
	for _, x := range ds.TestX[:5] {
		if !loaded.Encode(x).Equal(s.Encode(x)) {
			t.Fatal("loaded encoder differs from original")
		}
	}
}

func TestLoadedSystemSupportsRecovery(t *testing.T) {
	s, ds := trainSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.AttackRandom(0.1, 3); err != nil {
		t.Fatal(err)
	}
	r, err := loaded.NewRecoverer(recovery.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(loaded.EncodeAll(ds.TestX))
	if r.Stats().Queries != len(ds.TestX) {
		t.Fatal("recovery did not run on loaded system")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short input accepted")
	}
	s, _ := trainSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xFF
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated body.
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestLoadRejectsCRCCorruption(t *testing.T) {
	s, _ := trainSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the payload (deployed-model body,
	// past the header): only the CRC trailer can catch this.
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0x04
	_, err := Load(bytes.NewReader(data))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("mid-payload corruption: got %v, want ErrChecksum", err)
	}
	// A corrupted trailer is equally fatal.
	data = append([]byte(nil), buf.Bytes()...)
	data[len(data)-1] ^= 0xFF
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt trailer: got %v, want ErrChecksum", err)
	}
}

func TestStampedSnapshotRoundTrip(t *testing.T) {
	s, ds := trainSmall(t)
	var buf bytes.Buffer
	if err := s.SaveStamped(&buf, 0.9375); err != nil {
		t.Fatal(err)
	}
	loaded, stamp, err := LoadStamped(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stamp != 0.9375 {
		t.Fatalf("stamp %v survived as %v", 0.9375, stamp)
	}
	if loaded.Predict(ds.TestX[0]) != s.Predict(ds.TestX[0]) {
		t.Fatal("stamped snapshot changed predictions")
	}

	// Unstamped snapshots read back as NaN.
	buf.Reset()
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, stamp, err = LoadStamped(&buf); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(stamp) {
		t.Fatalf("unstamped snapshot read back stamp %v, want NaN", stamp)
	}

	// Out-of-range stamps are rejected at save time.
	if err := s.SaveStamped(&buf, 1.5); err == nil {
		t.Fatal("stamp 1.5 accepted")
	}
}

func TestSaveBeforeTrainFails(t *testing.T) {
	var s System
	var buf bytes.Buffer
	if err := s.Save(&buf); err == nil {
		t.Fatal("saving an untrained system should fail")
	}
}

func TestAnchoredSnapshotRoundTrip(t *testing.T) {
	s, ds := trainSmall(t)
	anchor := JournalAnchor{SealedSeq: 65}
	for i := range anchor.Root {
		anchor.Root[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := s.SaveAnchored(&buf, 0.875, &anchor); err != nil {
		t.Fatal(err)
	}
	loaded, stamp, got, err := LoadAnchored(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stamp != 0.875 {
		t.Fatalf("stamp survived as %v", stamp)
	}
	if got == nil || *got != anchor {
		t.Fatalf("anchor %+v survived as %+v", anchor, got)
	}
	if loaded.Predict(ds.TestX[0]) != s.Predict(ds.TestX[0]) {
		t.Fatal("anchored snapshot changed predictions")
	}

	// A zero sealed seq is not a valid lineage claim — rejected at
	// save time rather than silently written.
	if err := s.SaveAnchored(&buf, 0.875, &JournalAnchor{}); err == nil {
		t.Fatal("anchor with SealedSeq 0 accepted")
	}
}

func TestNilAnchorIsByteIdenticalToStamped(t *testing.T) {
	s, _ := trainSmall(t)
	var stamped, anchored bytes.Buffer
	if err := s.SaveStamped(&stamped, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAnchored(&anchored, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	// Unanchored saves must keep emitting the RHS2 format so older
	// readers (and byte-diffing tests) see no change.
	if !bytes.Equal(stamped.Bytes(), anchored.Bytes()) {
		t.Fatal("nil-anchor SaveAnchored diverged from SaveStamped bytes")
	}

	// And the RHS2 stream reads back through LoadAnchored with no
	// anchor.
	_, stamp, anchor, err := LoadAnchored(&stamped)
	if err != nil {
		t.Fatal(err)
	}
	if stamp != 0.5 || anchor != nil {
		t.Fatalf("RHS2 read back stamp %v anchor %+v", stamp, anchor)
	}
}

func TestLoadAnchoredRejectsZeroSealedSeq(t *testing.T) {
	s, _ := trainSmall(t)
	anchor := JournalAnchor{SealedSeq: 3}
	var buf bytes.Buffer
	if err := s.SaveAnchored(&buf, 0.5, &anchor); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The sealed seq is the 7th header word (after magic, four shape
	// words, and the stamp). Zero it and re-seal the CRC so the only
	// thing wrong with the stream is the empty lineage claim.
	off := 6 * 8
	for i := 0; i < 8; i++ {
		raw[off+i] = 0
	}
	payload := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(payload))
	if _, _, _, err := LoadAnchored(bytes.NewReader(raw)); err == nil {
		t.Fatal("anchored snapshot with zero sealed seq accepted")
	}
}

// TestLoadAnchoredBoundsAllocation feeds correctly sealed snapshots
// whose headers claim far more than their payload holds, or whose
// normalizer ranges could not scale a feature. The CRC is the
// sender's, so it gates nothing: the load must fail having allocated
// in proportion to the bytes present, not to the claims.
func TestLoadAnchoredBoundsAllocation(t *testing.T) {
	const bound = 1 << 20
	sealed := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	stamp := math.Float64bits(0.5)
	// A genuine two-feature snapshot with its ranges rewritten and the
	// CRC recomputed.
	sys, err := Train([][]float64{{0, 0}, {1, 1}, {0.1, 0.2}, {0.9, 0.8}}, []int{0, 1, 0, 1}, 2, Config{Dimensions: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	forgeRanges := func(min0, min1, max0, max1 float64) []byte {
		img := append([]byte(nil), buf.Bytes()...)
		payload := img[:len(img)-4]
		// Header words: magic, dims, levels, seed, features, stamp; then
		// both mins, then both maxes.
		for k, v := range []float64{min0, min1, max0, max1} {
			binary.LittleEndian.PutUint64(payload[6*8+8*k:], math.Float64bits(v))
		}
		return binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
	}
	if _, err := Load(bytes.NewReader(forgeRanges(-2, 0, 3, 1))); err != nil {
		t.Fatalf("finite forged ranges refused: %v", err)
	}
	for name, img := range map[string][]byte{
		// 2^24 features and no normalizer behind them.
		"features": sealed(systemMagic, 10000, 8, 1, 1<<24, stamp),
		// One feature's normalizer, then D=2^23 and no model section.
		"dims": sealed(systemMagic, 1<<23, 2, 1, 1, stamp, math.Float64bits(0), math.Float64bits(1)),
		// Feature 0's min is NaN and feature 1's is −Inf.
		"non-finite mins": forgeRanges(math.NaN(), math.Inf(-1), 1, 1),
		"infinite max":    forgeRanges(0, 0, 1, math.Inf(1)),
		// max − min overflows to +Inf.
		"overflowing span": forgeRanges(-1e308, 0, 1e308, 1),
	} {
		var before, after runtime.MemStats
		var err error
		runtime.ReadMemStats(&before)
		_, _, _, err = LoadAnchored(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: forged snapshot loaded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("%s: a %d-byte snapshot allocated %d bytes before failing (%v)", name, len(img), got, err)
		}
	}
}

// TestLoadAnchoredBoundsLevels seals a genuine snapshot whose header
// claims 2^20 levels of 1024 bits: the level memory alone would be
// 128 MiB. The load must refuse the header before building it.
func TestLoadAnchoredBoundsLevels(t *testing.T) {
	xs := [][]float64{{0}, {1}, {0.1}, {0.9}}
	sys, err := Train(xs, []int{0, 1, 0, 1}, 2, Config{Dimensions: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveStamped(&buf, 0.5); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	payload := img[:len(img)-4]
	// Header words: magic, dims, levels, ...
	binary.LittleEndian.PutUint64(payload[16:], 1<<20)
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(payload))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = LoadAnchored(bytes.NewReader(img))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("snapshot with 2^20 levels loaded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte snapshot allocated %d bytes before failing (%v)", len(img), got, err)
	}
}

// TestLoadAnchoredBoundsItemMemory seals a snapshot whose header and
// normalizer describe 2^15 features at D=2^15: every byte the
// normalizer needs is present, so only the item memory bound — 128 MiB
// of base hypervectors — stands between the header and the allocation.
// The load must refuse the header before building it.
func TestLoadAnchoredBoundsItemMemory(t *testing.T) {
	const features = 1 << 15
	xs := [][]float64{{0}, {1}, {0.1}, {0.9}}
	sys, err := Train(xs, []int{0, 1, 0, 1}, 2, Config{Dimensions: 1 << 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveStamped(&buf, 0.5); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Header words: magic, dims, levels, seed, features, stamp; then one
	// feature's min and max, then the model section.
	const header = 6 * 8
	binary.LittleEndian.PutUint64(img[32:], features)
	norm := make([]byte, 16*features)
	for i := features; i < 2*features; i++ {
		binary.LittleEndian.PutUint64(norm[8*i:], math.Float64bits(1))
	}
	forged := append(append(append([]byte(nil), img[:header]...), norm...), img[header+16:len(img)-4]...)
	forged = binary.LittleEndian.AppendUint32(forged, crc32.ChecksumIEEE(forged))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = LoadAnchored(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("snapshot with 2^15 features at D=2^15 loaded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte snapshot allocated %d bytes before failing (%v)", len(forged), got, err)
	}
}

// FuzzLoadAnchored feeds arbitrary bytes to the snapshot loader. It must
// never panic, and any image it accepts must survive a save/load round
// trip unchanged: shape, backend, stamp, anchor and deployed bits.
func FuzzLoadAnchored(f *testing.F) {
	xs := [][]float64{{0, 1, 0.5}, {1, 0, 0.2}, {0.1, 0.9, 0.7}, {0.9, 0.2, 0.1}, {0.5, 0.5, 0.9}, {0.3, 0.6, 0.4}}
	sys, err := Train(xs, []int{0, 1, 2, 0, 1, 2}, 3, Config{Dimensions: 256, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	compressed, err := sys.CompressLogHD(1)
	if err != nil {
		f.Fatal(err)
	}
	anchor := &JournalAnchor{Root: [32]byte{1, 2, 3}, SealedSeq: 7}
	for _, seed := range []struct {
		sys    *System
		stamp  float64
		anchor *JournalAnchor
	}{{sys, math.NaN(), nil}, {compressed, 0.75, nil}, {sys, 0.9, anchor}} {
		var buf bytes.Buffer
		if err := seed.sys.SaveAnchored(&buf, seed.stamp, seed.anchor); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, stamp, anchor, err := LoadAnchored(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.SaveAnchored(&buf, stamp, anchor); err != nil {
			t.Fatalf("accepted image does not re-save: %v", err)
		}
		s2, stamp2, anchor2, err := LoadAnchored(&buf)
		if err != nil {
			t.Fatalf("re-saved image does not reload: %v", err)
		}
		if s2.Backend() != s.Backend() || s2.Classes() != s.Classes() || s2.Dimensions() != s.Dimensions() ||
			s2.Features() != s.Features() || s2.Config() != s.Config() {
			t.Fatalf("shape changed in round trip: %s %+v -> %s %+v", s.Backend(), s.Config(), s2.Backend(), s2.Config())
		}
		if math.Float64bits(stamp2) != math.Float64bits(stamp) && !(math.IsNaN(stamp) && math.IsNaN(stamp2)) {
			t.Fatalf("stamp changed in round trip: %v -> %v", stamp, stamp2)
		}
		if (anchor == nil) != (anchor2 == nil) || (anchor != nil && *anchor != *anchor2) {
			t.Fatalf("anchor changed in round trip: %v -> %v", anchor, anchor2)
		}
		a, b := s.Snapshot(), s2.Snapshot()
		if len(a) != len(b) {
			t.Fatalf("deployed rows changed in round trip: %d -> %d", len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("deployed row %d changed in round trip", i)
			}
		}
	})
}
