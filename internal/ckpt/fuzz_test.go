package ckpt

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// v1GobBytes encodes a checkpoint in the retired seed format, a bare gob
// of {Version, Tensors}. Read must reject it with an error.
func v1GobBytes(tb testing.TB) []byte {
	type v1Checkpoint struct {
		Version int
		Tensors map[string][]float32
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v1Checkpoint{
		Version: 1, Tensors: map[string][]float32{"w": {1, 2}},
	}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeeds returns the committed seed corpus: a valid encoding, a v1
// gob and characteristic mutations, so even a plain `go test` run
// (which executes only the seeds) covers the interesting decode paths;
// `go test -fuzz=FuzzRead` explores from there.
func fuzzSeeds(tb testing.TB) [][]byte {
	valid := &Checkpoint{
		Model:     map[string][]float32{"c1.weight": {1, -2, 3.5}, "c1.bias": {0.25}},
		Optimizer: map[string][]float32{"c1.weight": {0.1, 0.2, 0.3}},
		RNG:       &RNGState{Seed: 9},
		Progress:  &Progress{Epoch: 1, Step: 10, LR: 0.05, Loss: []float32{1}, TrainAcc: []float64{0.5}},
	}
	var v2 bytes.Buffer
	if err := Write(&v2, valid); err != nil {
		tb.Fatal(err)
	}
	full := v2.Bytes()
	half := append([]byte(nil), full[:len(full)/2]...)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	// A v2 header claiming an enormous section: must error cleanly, not
	// allocate unboundedly.
	lying := append([]byte(nil), full[:24]...)
	for i := 16; i < 24 && i < len(lying); i++ {
		lying[i] = 0xff
	}
	return [][]byte{
		full,
		v1GobBytes(tb),
		half,
		flipped,
		lying,
		[]byte{},
		[]byte("ODQCKPT2"),
		[]byte("ODQCKPT3 but longer than the magic"),
		[]byte("random text that is neither format"),
	}
}

// FuzzRead asserts the decoder's only failure mode is a returned
// error: no panics, no runaway allocations, on any input.
func FuzzRead(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Read(bytes.NewReader(data))
		if err == nil && ck.Model == nil {
			t.Fatal("nil error must imply a decoded model section")
		}
	})
}

// FuzzRoundTrip: any checkpoint the decoder accepts must re-encode and
// decode to the same value (the decoder and encoder agree on the
// format).
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, ck); err != nil {
			t.Fatalf("re-encoding an accepted checkpoint failed: %v", err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-decoding a re-encoded checkpoint failed: %v", err)
		}
	})
}
