package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/hdc/encoding"
	"repro/internal/hdc/model"
)

// systemMagic guards the serialized system format. Version 2 ("RHS2")
// seals the payload with a CRC32 trailer and carries a held-out
// probe-accuracy stamp, so a restore path can reject both a corrupted
// image and a checkpoint that was already degraded when it was taken.
// Version 3 ("RHS3") additionally embeds a journal anchor — the
// writer's latest sealed journal Merkle root — binding the snapshot to
// the audit lineage it descends from. Unanchored saves still emit RHS2
// byte-identically, so old readers and old snapshots interoperate.
const (
	systemMagic         = 0x52485332 // "RHS2"
	systemMagicAnchored = 0x52485333 // "RHS3"
)

// JournalAnchor binds a snapshot to the tamper-evident journal of the
// process that wrote it: Root is the Merkle root the journal sealed
// over its first SealedSeq events at save time. A restore path holding
// that journal verifies the anchor before trusting the image, so a
// snapshot claiming a healing history the journal cannot prove is
// refused.
type JournalAnchor struct {
	Root      [32]byte
	SealedSeq uint64
}

// ErrChecksum reports a snapshot whose CRC32 trailer does not match
// its payload — the stored image rotted (or was tampered with) between
// Save and Load, exactly the corruption a verified checkpoint must
// never restore.
var ErrChecksum = fmt.Errorf("core: snapshot checksum mismatch")

// Save persists the system: configuration (from which the encoder is
// regenerated — base hypervectors never need to be stored), the fitted
// normalizer ranges, and the deployed class hypervectors, sealed with
// a CRC32 trailer. Training counters are not persisted; a loaded
// system classifies and recovers but cannot Retrain. The snapshot
// carries no accuracy stamp; use SaveStamped for verified checkpoints.
func (s *System) Save(w io.Writer) error {
	return s.SaveStamped(w, math.NaN())
}

// SaveStamped is Save with a held-out probe-accuracy stamp embedded in
// the header. Restore paths compare the stamp against their minimum
// acceptable floor, so an image captured after the model had already
// degraded is rejected rather than rolled back to. NaN means
// "unstamped" (no probe ran); otherwise the stamp must be in [0, 1].
func (s *System) SaveStamped(w io.Writer, probeAccuracy float64) error {
	return s.SaveAnchored(w, probeAccuracy, nil)
}

// SaveAnchored is SaveStamped with an optional journal anchor embedded
// in the header. A nil anchor writes the RHS2 format byte-identically
// to SaveStamped; a non-nil anchor writes RHS3, which prepends the
// anchor's sealed seq and Merkle root to the payload so restore paths
// can verify the snapshot's journal lineage.
func (s *System) SaveAnchored(w io.Writer, probeAccuracy float64, anchor *JournalAnchor) error {
	if s.encoder == nil || (s.model == nil && s.log == nil) {
		return fmt.Errorf("core: cannot save an untrained system")
	}
	if !math.IsNaN(probeAccuracy) && (probeAccuracy < 0 || probeAccuracy > 1) {
		return fmt.Errorf("core: accuracy stamp %v out of [0,1]", probeAccuracy)
	}
	if anchor != nil && anchor.SealedSeq == 0 {
		return fmt.Errorf("core: journal anchor with no sealed events")
	}
	// Everything written through mw feeds the CRC; the trailer itself
	// goes to w alone.
	sum := crc32.NewIEEE()
	mw := io.MultiWriter(w, sum)
	bw := bufio.NewWriter(mw)
	magic := uint64(systemMagic)
	if anchor != nil {
		magic = systemMagicAnchored
	}
	header := []uint64{
		magic,
		uint64(s.cfg.Dimensions),
		uint64(s.cfg.Levels),
		s.cfg.Seed,
		uint64(s.encoder.Features()),
		math.Float64bits(probeAccuracy),
	}
	if anchor != nil {
		header = append(header, anchor.SealedSeq)
	}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("core: save header: %w", err)
		}
	}
	if anchor != nil {
		if _, err := bw.Write(anchor.Root[:]); err != nil {
			return fmt.Errorf("core: save anchor: %w", err)
		}
	}
	mins, maxs := s.encoder.Normalizer().Ranges()
	for _, slice := range [][]float64{mins, maxs} {
		for _, v := range slice {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return fmt.Errorf("core: save normalizer: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The model section leads with its backend tag (dense RHDC vs
	// compressed RHLG), so readers dispatch — or refuse — on it.
	if err := s.backend().WriteDeployed(mw); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, sum.Sum32())
}

// Load reconstructs a system saved by Save or SaveStamped, discarding
// the stamp.
func Load(r io.Reader) (*System, error) {
	s, _, err := LoadStamped(r)
	return s, err
}

// LoadStamped reconstructs a system and returns its probe-accuracy
// stamp (NaN when the snapshot was written unstamped), discarding any
// journal anchor. The CRC32 trailer is verified before any of the
// payload is trusted; a mismatch returns ErrChecksum.
func LoadStamped(r io.Reader) (*System, float64, error) {
	s, stamp, _, err := LoadAnchored(r)
	return s, stamp, err
}

// LoadAnchored reconstructs a system and returns its probe-accuracy
// stamp and journal anchor (nil for RHS2 snapshots, which predate
// anchoring or were written without a sealed journal). The CRC32
// trailer is verified before any of the payload is trusted; a mismatch
// returns ErrChecksum. The fixed header is read and bounded first, so
// a header asking for more encoder memory than the caps allow is
// refused before the rest of the snapshot is even read.
func LoadAnchored(r io.Reader) (*System, float64, *JournalAnchor, error) {
	nan := math.NaN()
	var head [6 * 8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, nan, nil, fmt.Errorf("core: load header: %w", err)
	}
	var magic, dims, levels, seed, features, stampBits uint64
	for i, p := range []*uint64{&magic, &dims, &levels, &seed, &features, &stampBits} {
		*p = binary.LittleEndian.Uint64(head[8*i:])
	}
	if magic != systemMagic && magic != systemMagicAnchored {
		return nil, nan, nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	// The level and item memories are sized from the header alone, so
	// their shape is bounded before anything else is read.
	if dims == 0 || dims > math.MaxInt32 || levels > math.MaxInt32 {
		return nil, nan, nil, fmt.Errorf("core: implausible shape: %d dims, %d levels", dims, levels)
	}
	if err := encoding.ValidateLevels(int(dims), int(levels)); err != nil {
		return nil, nan, nil, fmt.Errorf("core: %w", err)
	}
	if features == 0 || features > 1<<24 {
		return nil, nan, nil, fmt.Errorf("core: implausible feature count %d", features)
	}
	if err := encoding.ValidateFeatures(int(dims), int(features)); err != nil {
		return nil, nan, nil, fmt.Errorf("core: %w", err)
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, nan, nil, fmt.Errorf("core: load snapshot: %w", err)
	}
	if len(rest) < 4 {
		return nil, nan, nil, fmt.Errorf("core: snapshot truncated (%d bytes)", len(head)+len(rest))
	}
	payload, trailer := rest[:len(rest)-4], rest[len(rest)-4:]
	if crc32.Update(crc32.ChecksumIEEE(head[:]), crc32.IEEETable, payload) != binary.LittleEndian.Uint32(trailer) {
		return nil, nan, nil, ErrChecksum
	}
	br := bytes.NewReader(payload)
	var anchor *JournalAnchor
	if magic == systemMagicAnchored {
		anchor = &JournalAnchor{}
		if err := binary.Read(br, binary.LittleEndian, &anchor.SealedSeq); err != nil {
			return nil, nan, nil, fmt.Errorf("core: load anchor: %w", err)
		}
		if _, err := io.ReadFull(br, anchor.Root[:]); err != nil {
			return nil, nan, nil, fmt.Errorf("core: load anchor: %w", err)
		}
		if anchor.SealedSeq == 0 {
			return nil, nan, nil, fmt.Errorf("core: anchored snapshot with no sealed events")
		}
	}
	stamp := math.Float64frombits(stampBits)
	if !math.IsNaN(stamp) && (stamp < 0 || stamp > 1) {
		return nil, nan, nil, fmt.Errorf("core: accuracy stamp %v out of [0,1]", stamp)
	}
	// The sender computes the CRC, so it proves nothing about the
	// header: nothing is sized from a header field before the bytes
	// behind it are known to be present. The normalizer is two float64
	// ranges per feature.
	if need := 16 * features; uint64(br.Len()) < need {
		return nil, nan, nil, fmt.Errorf("core: load normalizer: %d features need %d bytes, %d remain", features, need, br.Len())
	}
	mins := make([]float64, features)
	maxs := make([]float64, features)
	for _, slice := range [][]float64{mins, maxs} {
		for i := range slice {
			var bits uint64
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return nil, nan, nil, fmt.Errorf("core: load normalizer: %w", err)
			}
			slice[i] = math.Float64frombits(bits)
		}
	}
	norm, err := encoding.NormalizerFromRanges(mins, maxs)
	if err != nil {
		return nil, nan, nil, fmt.Errorf("core: %w", err)
	}
	// The model section comes before the encoder: its readers bound
	// their allocation by the bytes they read, so a dims that matches
	// the model is proved by class vectors actually present before the
	// encoder sizes its item memory from it.
	m, l, err := model.ReadBackend(br)
	if err != nil {
		return nil, nan, nil, fmt.Errorf("core: %w", err)
	}
	sys := &System{
		cfg:   Config{Dimensions: int(dims), Levels: int(levels), Seed: seed},
		model: m,
		log:   l,
	}
	if sys.Dimensions() != int(dims) {
		return nil, nan, nil, fmt.Errorf("core: model dims %d != config dims %d", sys.Dimensions(), dims)
	}
	if sys.encoder, err = encoding.NewRecordEncoder(int(dims), int(levels), norm, seed); err != nil {
		return nil, nan, nil, fmt.Errorf("core: %w", err)
	}
	return sys, stamp, anchor, nil
}
