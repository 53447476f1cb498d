package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bitvec"
)

// deployedMagic guards the serialized dense deployed-model format;
// loghdMagic guards the compressed LogHD deployment. The magic doubles
// as the backend tag inside stamped system snapshots: a reader
// expecting one backend refuses the other's image instead of
// misparsing it.
const (
	deployedMagic = 0x52484443 // "RHDC"
	loghdMagic    = 0x52484C47 // "RHLG"
)

// WriteDeployed serializes the deployed binary class hypervectors —
// the model state a device would persist (and an attacker would
// target). Training counters are not persisted: a loaded model can
// classify and be recovered, but not Retrain.
func (m *Model) WriteDeployed(w io.Writer) error {
	if m.deployed == nil {
		return fmt.Errorf("model: not trained")
	}
	bw := bufio.NewWriter(w)
	header := []uint64{deployedMagic, uint64(m.classes), uint64(m.dims)}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("model: write header: %w", err)
		}
	}
	for c, v := range m.deployed {
		data, err := v.MarshalBinary()
		if err != nil {
			return fmt.Errorf("model: marshal class %d: %w", c, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(data))); err != nil {
			return fmt.Errorf("model: write class %d: %w", c, err)
		}
		if _, err := bw.Write(data); err != nil {
			return fmt.Errorf("model: write class %d: %w", c, err)
		}
	}
	return bw.Flush()
}

// ReadDeployed deserializes a deployed model written by WriteDeployed.
func ReadDeployed(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	var magic, classes, dims uint64
	for _, p := range []*uint64{&magic, &classes, &dims} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("model: read header: %w", err)
		}
	}
	if magic == loghdMagic {
		return nil, fmt.Errorf("model: backend tag mismatch: loghd image where a dense model was expected")
	}
	if magic != deployedMagic {
		return nil, fmt.Errorf("model: bad magic %#x", magic)
	}
	if classes < 2 || classes > 1<<20 || dims == 0 || dims > 1<<32 {
		return nil, fmt.Errorf("model: implausible shape %d classes × %d dims", classes, dims)
	}
	// Class vectors are read before New allocates the training
	// counters, so a forged header costs nothing until the data backs
	// it.
	var vs []*bitvec.Vector
	for c := uint64(0); c < classes; c++ {
		v, err := readVector(br, dims)
		if err != nil {
			return nil, fmt.Errorf("model: read class %d: %w", c, err)
		}
		vs = append(vs, v)
	}
	m, err := New(int(classes), int(dims))
	if err != nil {
		return nil, err
	}
	for c, v := range vs {
		m.SetClassVector(c, v)
	}
	return m, nil
}

// readVector reads one length-prefixed vector blob of dims bits. The
// buffer grows with the bytes actually read, so a forged length
// allocates in proportion to the data behind it, not to its claim.
func readVector(r io.Reader, dims uint64) (*bitvec.Vector, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 16+8*(dims/64+1)+64 {
		return nil, fmt.Errorf("blob of %d bytes too large", n)
	}
	data, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) != n {
		return nil, io.ErrUnexpectedEOF
	}
	var v bitvec.Vector
	if err := v.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	if v.Len() != int(dims) {
		return nil, fmt.Errorf("%d dims, want %d", v.Len(), dims)
	}
	return &v, nil
}

// WriteDeployed serializes the compressed deployment: header, the n
// base planes as length-prefixed vector blobs, and the per-class
// codewords. Same persistence contract as Model.WriteDeployed, under
// its own backend tag.
func (l *LogHD) WriteDeployed(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := []uint64{loghdMagic, uint64(l.Classes()), uint64(l.dims), uint64(len(l.planes))}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("model: write loghd header: %w", err)
		}
	}
	for j, v := range l.planes {
		data, err := v.MarshalBinary()
		if err != nil {
			return fmt.Errorf("model: marshal plane %d: %w", j, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(data))); err != nil {
			return fmt.Errorf("model: write plane %d: %w", j, err)
		}
		if _, err := bw.Write(data); err != nil {
			return fmt.Errorf("model: write plane %d: %w", j, err)
		}
	}
	for c, cw := range l.decode.code {
		if err := binary.Write(bw, binary.LittleEndian, uint64(cw)); err != nil {
			return fmt.Errorf("model: write codeword %d: %w", c, err)
		}
	}
	for j, o := range l.decode.offsets {
		if err := binary.Write(bw, binary.LittleEndian, uint64(o)); err != nil {
			return fmt.Errorf("model: write offset %d: %w", j, err)
		}
	}
	return bw.Flush()
}

// ReadLogHD deserializes a compressed deployment written by
// LogHD.WriteDeployed, rejecting dense images by backend tag.
func ReadLogHD(r io.Reader) (*LogHD, error) {
	br := bufio.NewReader(r)
	var magic, classes, dims, planes uint64
	for _, p := range []*uint64{&magic, &classes, &dims, &planes} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("model: read loghd header: %w", err)
		}
	}
	if magic == deployedMagic {
		return nil, fmt.Errorf("model: backend tag mismatch: dense image where a loghd model was expected")
	}
	if magic != loghdMagic {
		return nil, fmt.Errorf("model: bad loghd magic %#x", magic)
	}
	// Distinct codewords need classes <= 2^planes.
	if planes == 0 || planes > maxLogHDPlanes || classes < 2 || classes > 1<<planes ||
		dims == 0 || dims > 1<<32 {
		return nil, fmt.Errorf("model: implausible loghd shape %d classes × %d dims × %d planes",
			classes, dims, planes)
	}
	vs := make([]*bitvec.Vector, planes)
	for j := range vs {
		v, err := readVector(br, dims)
		if err != nil {
			return nil, fmt.Errorf("model: read plane %d: %w", j, err)
		}
		vs[j] = v
	}
	// Two classes sharing a codeword decode to equal scores, and the
	// later one could never be predicted.
	d := &logDecode{classes: int(classes), code: make([]uint32, classes), offsets: make([]int64, planes)}
	seen := make(map[uint64]bool)
	for c := range d.code {
		var cw uint64
		if err := binary.Read(br, binary.LittleEndian, &cw); err != nil {
			return nil, fmt.Errorf("model: read codeword %d: %w", c, err)
		}
		if cw>>planes != 0 {
			return nil, fmt.Errorf("model: codeword %d (%#x) exceeds %d planes", c, cw, planes)
		}
		if seen[cw] {
			return nil, fmt.Errorf("model: codeword %d (%#x) duplicates an earlier class", c, cw)
		}
		seen[cw] = true
		d.code[c] = uint32(cw)
	}
	// Centering offsets are summed Hamming distances, so each is bounded
	// by k·D; anything larger is corruption.
	maxOff := classes * dims
	for j := range d.offsets {
		var o uint64
		if err := binary.Read(br, binary.LittleEndian, &o); err != nil {
			return nil, fmt.Errorf("model: read offset %d: %w", j, err)
		}
		if o > maxOff {
			return nil, fmt.Errorf("model: offset %d (%d) exceeds %d classes × %d dims", j, o, classes, dims)
		}
		d.offsets[j] = int64(o)
	}
	return newLogHD(int(dims), vs, d), nil
}

// ReadBackend reads whichever deployed image the stream carries,
// dispatching on the leading backend tag: exactly one of the returned
// backends is non-nil. System snapshots use it so one snapshot format
// transports both dense and compressed tenants.
func ReadBackend(r io.Reader) (*Model, *LogHD, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(8)
	if err != nil {
		return nil, nil, fmt.Errorf("model: read backend tag: %w", err)
	}
	switch binary.LittleEndian.Uint64(head) {
	case loghdMagic:
		l, err := ReadLogHD(br)
		return nil, l, err
	default:
		// ReadDeployed owns the unknown-magic diagnostics.
		m, err := ReadDeployed(br)
		return m, nil, err
	}
}
