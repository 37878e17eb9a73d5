// Package ckpt implements checkpoint format v2: a framed, checksummed
// binary envelope holding everything a training run needs to survive a
// crash — model tensors, SGD momentum buffers, RNG stream identity and
// training progress — plus the atomic file I/O (see file.go) that makes
// writes crash-safe.
//
// Design goals, in order:
//
//  1. Corruption is DETECTED, never trained through. Every section and
//     every tensor carries a CRC-32C, and a whole-file CRC covers the
//     complete envelope, so a truncated, bit-flipped or zero-filled file
//     fails to decode with an explicit error instead of silently loading
//     half a model. Quantized training is particularly sensitive to
//     scale/clipping drift from corrupted weights, which is why the paper
//     stack treats a wrong load as worse than no load.
//  2. Resume is EXACT. The envelope carries optimizer momentum, the run
//     seed and the epoch/step cursor; together with the repo's
//     (seed, epoch)-keyed RNG streams this makes a resumed run
//     bit-identical to an uninterrupted one.
//
// Layout (all integers little-endian):
//
//	[8]  magic "ODQCKPT2"
//	u32  version (2)
//	u32  section count
//	per section:
//	  u16  name length, name bytes
//	  u64  payload length
//	  u32  CRC-32C(payload)
//	  payload
//	u32  CRC-32C of everything above (whole-file checksum)
//
// Tensor-map payloads ("model", "optimizer") are themselves framed:
//
//	u32  tensor count
//	per tensor (sorted by name, so encoding is deterministic):
//	  u16  name length, name bytes
//	  u64  element count
//	  u32  CRC-32C(raw element bytes)
//	  f32  elements
//
// Unknown section names are skipped (their checksums still verified),
// so older readers tolerate newer writers.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Version is the current checkpoint format version.
const Version = 2

var magic = [8]byte{'O', 'D', 'Q', 'C', 'K', 'P', 'T', '2'}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section names. Unknown names are skipped on read for forward
// compatibility.
const (
	SectionModel     = "model"
	SectionOptimizer = "optimizer"
	SectionRNG       = "rng"
	SectionProgress  = "progress"
)

// maxName bounds section and tensor names; maxChunk bounds single
// allocations while reading payloads so a corrupted length field on a
// truncated stream errors out instead of attempting a huge allocation.
const (
	maxName  = 1 << 12
	maxChunk = 1 << 20
)

// RNGState identifies the random streams of a run. All stochastic
// streams in this repo (batch shuffling, augmentation) are keyed by
// (Seed, epoch), so the seed plus the progress cursor IS the complete
// RNG state; no generator internals need serializing.
type RNGState struct {
	Seed int64
}

// Progress is the training cursor and per-epoch history.
type Progress struct {
	// Epoch is the number of COMPLETED epochs; resume starts at this
	// epoch index.
	Epoch int
	// Step is the number of completed optimizer steps across the run.
	Step int64
	// LR is the learning rate in effect during the last completed epoch
	// (after any schedule drops and NaN-rollback halvings).
	LR float32
	// Loss and TrainAcc mirror train.History for the completed epochs.
	Loss     []float32
	TrainAcc []float64
	// GroupSize is the number of global batches folded into each
	// optimizer step (the sync-group size of data-parallel training).
	// 0 in files written before scale-out and means 1. Deliberately the
	// ONLY scale-out field here: worldSize and rank describe the run's
	// topology, not its trajectory, and recording them would break the
	// invariant that an N-worker and an M-worker run of the same group
	// size produce byte-equal checkpoints (the elastic-resume contract).
	GroupSize int
}

// Checkpoint is the in-memory form of a v2 file. Model is always
// present; the other sections are optional (nil when absent), which is
// how model-only inference checkpoints are written.
type Checkpoint struct {
	Model     map[string][]float32
	Optimizer map[string][]float32
	RNG       *RNGState
	Progress  *Progress
}

// section is one framed (name, payload) pair.
type section struct {
	name    string
	payload []byte
}

// crcWriter tees writes through a running CRC-32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, castagnoli, p)
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeU16(w io.Writer, v uint16) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU32(w io.Writer, v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU64(w io.Writer, v uint64) error { return binary.Write(w, binary.LittleEndian, v) }

// encodeTensorMap frames a name→values map deterministically (sorted by
// name) with a per-tensor CRC.
func encodeTensorMap(m map[string][]float32) ([]byte, error) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	if err := writeU32(&buf, uint32(len(names))); err != nil {
		return nil, err
	}
	raw := make([]byte, 0, 4096)
	for _, name := range names {
		if len(name) > maxName {
			return nil, fmt.Errorf("ckpt: tensor name %q too long", name[:32]+"...")
		}
		vals := m[name]
		raw = raw[:0]
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		if err := writeU16(&buf, uint16(len(name))); err != nil {
			return nil, err
		}
		buf.WriteString(name)
		if err := writeU64(&buf, uint64(len(vals))); err != nil {
			return nil, err
		}
		if err := writeU32(&buf, crc32.Checksum(raw, castagnoli)); err != nil {
			return nil, err
		}
		buf.Write(raw)
	}
	return buf.Bytes(), nil
}

// decodeTensorMap is the inverse of encodeTensorMap, verifying every
// per-tensor checksum.
func decodeTensorMap(b []byte) (map[string][]float32, error) {
	r := bytes.NewReader(b)
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("ckpt: tensor map header: %w", err)
	}
	out := make(map[string][]float32, count)
	for i := uint32(0); i < count; i++ {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("ckpt: tensor %d name length: %w", i, err)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nameBuf); err != nil {
			return nil, fmt.Errorf("ckpt: tensor %d name: %w", i, err)
		}
		name := string(nameBuf)
		var elems uint64
		if err := binary.Read(r, binary.LittleEndian, &elems); err != nil {
			return nil, fmt.Errorf("ckpt: tensor %q element count: %w", name, err)
		}
		if elems*4 > uint64(r.Len()) {
			return nil, fmt.Errorf("ckpt: tensor %q claims %d elements, only %d bytes remain",
				name, elems, r.Len())
		}
		var wantCRC uint32
		if err := binary.Read(r, binary.LittleEndian, &wantCRC); err != nil {
			return nil, fmt.Errorf("ckpt: tensor %q checksum: %w", name, err)
		}
		raw := make([]byte, elems*4)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, fmt.Errorf("ckpt: tensor %q data: %w", name, err)
		}
		if got := crc32.Checksum(raw, castagnoli); got != wantCRC {
			return nil, fmt.Errorf("ckpt: tensor %q checksum mismatch (file %08x, computed %08x): checkpoint is corrupt",
				name, wantCRC, got)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("ckpt: duplicate tensor %q in checkpoint", name)
		}
		vals := make([]float32, elems)
		for j := range vals {
			vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[j*4:]))
		}
		out[name] = vals
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after tensor map", r.Len())
	}
	return out, nil
}

// encodeRNG / decodeRNG frame the RNG section.
func encodeRNG(s *RNGState) []byte {
	var buf bytes.Buffer
	writeU64(&buf, uint64(s.Seed))
	return buf.Bytes()
}

func decodeRNG(b []byte) (*RNGState, error) {
	if len(b) != 8 {
		return nil, fmt.Errorf("ckpt: rng section is %d bytes, want 8", len(b))
	}
	return &RNGState{Seed: int64(binary.LittleEndian.Uint64(b))}, nil
}

// encodeProgress / decodeProgress frame the progress section.
func encodeProgress(p *Progress) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeU64(&buf, uint64(p.Epoch)); err != nil {
		return nil, err
	}
	writeU64(&buf, uint64(p.Step))
	writeU32(&buf, math.Float32bits(p.LR))
	writeU32(&buf, uint32(len(p.Loss)))
	for _, v := range p.Loss {
		writeU32(&buf, math.Float32bits(v))
	}
	writeU32(&buf, uint32(len(p.TrainAcc)))
	for _, v := range p.TrainAcc {
		writeU64(&buf, math.Float64bits(v))
	}
	// GroupSize rides at the end so pre-scale-out files (which simply
	// stop after the accuracy list) still decode; see decodeProgress.
	writeU32(&buf, uint32(p.GroupSize))
	return buf.Bytes(), nil
}

func decodeProgress(b []byte) (*Progress, error) {
	r := bytes.NewReader(b)
	var epoch, step uint64
	var lrBits, nLoss uint32
	if err := binary.Read(r, binary.LittleEndian, &epoch); err != nil {
		return nil, fmt.Errorf("ckpt: progress epoch: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &step); err != nil {
		return nil, fmt.Errorf("ckpt: progress step: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &lrBits); err != nil {
		return nil, fmt.Errorf("ckpt: progress lr: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &nLoss); err != nil {
		return nil, fmt.Errorf("ckpt: progress loss count: %w", err)
	}
	if uint64(nLoss)*4 > uint64(r.Len()) {
		return nil, fmt.Errorf("ckpt: progress claims %d loss entries, only %d bytes remain", nLoss, r.Len())
	}
	p := &Progress{Epoch: int(epoch), Step: int64(step), LR: math.Float32frombits(lrBits)}
	for i := uint32(0); i < nLoss; i++ {
		var bits uint32
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("ckpt: progress loss[%d]: %w", i, err)
		}
		p.Loss = append(p.Loss, math.Float32frombits(bits))
	}
	var nAcc uint32
	if err := binary.Read(r, binary.LittleEndian, &nAcc); err != nil {
		return nil, fmt.Errorf("ckpt: progress acc count: %w", err)
	}
	if uint64(nAcc)*8 > uint64(r.Len()) {
		return nil, fmt.Errorf("ckpt: progress claims %d acc entries, only %d bytes remain", nAcc, r.Len())
	}
	for i := uint32(0); i < nAcc; i++ {
		var bits uint64
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("ckpt: progress acc[%d]: %w", i, err)
		}
		p.TrainAcc = append(p.TrainAcc, math.Float64frombits(bits))
	}
	// Optional trailing field: files written before scale-out end here
	// and load with GroupSize 0 (meaning 1).
	if r.Len() > 0 {
		var gs uint32
		if err := binary.Read(r, binary.LittleEndian, &gs); err != nil {
			return nil, fmt.Errorf("ckpt: progress group size: %w", err)
		}
		p.GroupSize = int(gs)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after progress section", r.Len())
	}
	return p, nil
}

// Write serializes ck to w in format v2. The encoding is deterministic:
// the same checkpoint always produces the same bytes, which the
// kill-and-resume verification gate relies on (resumed and uninterrupted
// runs must produce bit-identical files).
func Write(w io.Writer, ck *Checkpoint) error {
	if ck.Model == nil {
		return fmt.Errorf("ckpt: checkpoint has no model section")
	}
	var sections []section
	modelPayload, err := encodeTensorMap(ck.Model)
	if err != nil {
		return err
	}
	sections = append(sections, section{SectionModel, modelPayload})
	if ck.Optimizer != nil {
		p, err := encodeTensorMap(ck.Optimizer)
		if err != nil {
			return err
		}
		sections = append(sections, section{SectionOptimizer, p})
	}
	if ck.RNG != nil {
		sections = append(sections, section{SectionRNG, encodeRNG(ck.RNG)})
	}
	if ck.Progress != nil {
		p, err := encodeProgress(ck.Progress)
		if err != nil {
			return err
		}
		sections = append(sections, section{SectionProgress, p})
	}

	cw := &crcWriter{w: w}
	if _, err := cw.Write(magic[:]); err != nil {
		return fmt.Errorf("ckpt: writing header: %w", err)
	}
	if err := writeU32(cw, Version); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(len(sections))); err != nil {
		return err
	}
	for _, s := range sections {
		if err := writeU16(cw, uint16(len(s.name))); err != nil {
			return err
		}
		if _, err := io.WriteString(cw, s.name); err != nil {
			return err
		}
		if err := writeU64(cw, uint64(len(s.payload))); err != nil {
			return err
		}
		if err := writeU32(cw, crc32.Checksum(s.payload, castagnoli)); err != nil {
			return err
		}
		if _, err := cw.Write(s.payload); err != nil {
			return fmt.Errorf("ckpt: writing section %q: %w", s.name, err)
		}
	}
	// Whole-file checksum over everything written so far, NOT run through
	// cw (it must not checksum itself).
	return writeU32(w, cw.crc)
}

// readPayload reads n bytes in bounded chunks so that a corrupted length
// field on a truncated stream produces a clean error instead of a giant
// allocation.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	for n > 0 {
		chunk := n
		if chunk > maxChunk {
			chunk = maxChunk
		}
		if _, err := io.CopyN(&buf, r, int64(chunk)); err != nil {
			return nil, err
		}
		n -= chunk
	}
	return buf.Bytes(), nil
}

// Read decodes a v2 checkpoint, verifying the magic, every section
// checksum and the whole-file checksum. Any mismatch — truncation, bit
// flip, zero-fill — yields an error; a nil error guarantees the returned
// checkpoint is exactly what was written.
func Read(r io.Reader) (*Checkpoint, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading magic: %w", err)
	}
	if head != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q: not a v2 checkpoint", head[:])
	}
	fileCRC := crc32.Checksum(magic[:], castagnoli)
	update := func(b []byte) { fileCRC = crc32.Update(fileCRC, castagnoli, b) }

	readN := func(n int) ([]byte, error) {
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		update(b)
		return b, nil
	}

	hdr, err := readN(8)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading version: %w", err)
	}
	version := binary.LittleEndian.Uint32(hdr[:4])
	if version != Version {
		return nil, fmt.Errorf("ckpt: unsupported checkpoint version %d (this build reads v%d)", version, Version)
	}
	nSections := binary.LittleEndian.Uint32(hdr[4:])
	if nSections > 1024 {
		return nil, fmt.Errorf("ckpt: implausible section count %d: checkpoint is corrupt", nSections)
	}

	ck := &Checkpoint{}
	seen := make(map[string]bool)
	for i := uint32(0); i < nSections; i++ {
		b, err := readN(2)
		if err != nil {
			return nil, fmt.Errorf("ckpt: section %d name length: %w", i, err)
		}
		nameLen := binary.LittleEndian.Uint16(b)
		if int(nameLen) > maxName {
			return nil, fmt.Errorf("ckpt: section %d name length %d too large: checkpoint is corrupt", i, nameLen)
		}
		nb, err := readN(int(nameLen))
		if err != nil {
			return nil, fmt.Errorf("ckpt: section %d name: %w", i, err)
		}
		name := string(nb)
		if seen[name] {
			return nil, fmt.Errorf("ckpt: duplicate section %q", name)
		}
		seen[name] = true
		b, err = readN(12)
		if err != nil {
			return nil, fmt.Errorf("ckpt: section %q header: %w", name, err)
		}
		payloadLen := binary.LittleEndian.Uint64(b[:8])
		wantCRC := binary.LittleEndian.Uint32(b[8:])
		payload, err := readPayload(r, payloadLen)
		if err != nil {
			return nil, fmt.Errorf("ckpt: section %q payload (%d bytes): %w", name, payloadLen, err)
		}
		update(payload)
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			return nil, fmt.Errorf("ckpt: section %q checksum mismatch (file %08x, computed %08x): checkpoint is corrupt",
				name, wantCRC, got)
		}
		switch name {
		case SectionModel:
			if ck.Model, err = decodeTensorMap(payload); err != nil {
				return nil, err
			}
		case SectionOptimizer:
			if ck.Optimizer, err = decodeTensorMap(payload); err != nil {
				return nil, err
			}
		case SectionRNG:
			if ck.RNG, err = decodeRNG(payload); err != nil {
				return nil, err
			}
		case SectionProgress:
			if ck.Progress, err = decodeProgress(payload); err != nil {
				return nil, err
			}
		default:
			// Unknown section from a newer writer: checksum verified,
			// content ignored.
		}
	}

	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading whole-file checksum: %w", err)
	}
	if want := binary.LittleEndian.Uint32(tail[:]); want != fileCRC {
		return nil, fmt.Errorf("ckpt: whole-file checksum mismatch (file %08x, computed %08x): checkpoint is corrupt",
			want, fileCRC)
	}
	if ck.Model == nil {
		return nil, fmt.Errorf("ckpt: checkpoint has no model section")
	}
	return ck, nil
}
