package ckpt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Model: map[string][]float32{
			"c1.weight": {0.5, -1.25, 3e-8, 42},
			"c1.bias":   {0},
			"bn1.gamma": {1, 1, 1},
		},
		Optimizer: map[string][]float32{
			"c1.weight": {0.01, -0.02, 0, 0.5},
			"c1.bias":   {-0.003},
		},
		RNG: &RNGState{Seed: 77},
		Progress: &Progress{
			Epoch: 3, Step: 96, LR: 0.0125,
			Loss:     []float32{2.1, 1.4, 0.9},
			TrainAcc: []float64{0.3, 0.55, 0.71},
		},
	}
}

func encode(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripFull(t *testing.T) {
	ck := sampleCheckpoint()
	got, err := Read(bytes.NewReader(encode(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", ck, got)
	}
}

func TestRoundTripModelOnly(t *testing.T) {
	ck := &Checkpoint{Model: map[string][]float32{"w": {1, 2, 3}}}
	got, err := Read(bytes.NewReader(encode(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Optimizer != nil || got.RNG != nil || got.Progress != nil {
		t.Fatalf("model-only checkpoint grew sections: %+v", got)
	}
	if !reflect.DeepEqual(ck.Model, got.Model) {
		t.Fatal("model tensors mismatch")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	a := encode(t, sampleCheckpoint())
	b := encode(t, sampleCheckpoint())
	if !bytes.Equal(a, b) {
		t.Fatal("same checkpoint must encode to identical bytes (map order must not leak)")
	}
}

func TestSpecialFloatsSurvive(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	ck := &Checkpoint{Model: map[string][]float32{"w": {nan, inf, negZero}}}
	got, err := Read(bytes.NewReader(encode(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	w := got.Model["w"]
	if !math.IsNaN(float64(w[0])) || !math.IsInf(float64(w[1]), 1) {
		t.Fatalf("special values mangled: %v", w)
	}
	if math.Float32bits(w[2]) != math.Float32bits(float32(math.Copysign(0, -1))) {
		t.Fatalf("-0 not preserved bit-exactly: %x", math.Float32bits(w[2]))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"short":        []byte("ODQ"),
		"wrong magic":  []byte("NOTACKPTxxxxxxxxxxxxxxxx"),
		"text":         []byte("definitely not a checkpoint file, just some text"),
		"magic only":   magic[:],
		"v1 truncated": {0x2b, 0x7f},
		"v1 gob":       v1GobBytes(t),
	}
	for name, b := range cases {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: garbage input must error", name)
		}
	}
}

func TestReadRejectsFutureVersion(t *testing.T) {
	b := encode(t, sampleCheckpoint())
	b[8] = 99 // version field follows the 8-byte magic
	_, err := Read(bytes.NewReader(b))
	if err == nil {
		t.Fatal("future version must be rejected")
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ck := sampleCheckpoint()
	if err := SaveFile(path, ck); err != nil {
		t.Fatal(err)
	}
	got, fromFallback, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFallback {
		t.Fatal("primary file must load without fallback")
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatal("file round trip mismatch")
	}
	// No temp litter.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("unexpected files in dir: %v", entries)
	}
}

func TestSaveFileRotatesLastGood(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	first := &Checkpoint{Model: map[string][]float32{"w": {1}}}
	second := &Checkpoint{Model: map[string][]float32{"w": {2}}}
	if err := SaveFile(path, first); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, second); err != nil {
		t.Fatal(err)
	}
	prev, _, err := LoadFile(path + PrevSuffix)
	if err != nil {
		t.Fatalf("last-good copy must exist and load: %v", err)
	}
	if prev.Model["w"][0] != 1 {
		t.Fatal("last-good copy must hold the previous checkpoint")
	}
	cur, _, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Model["w"][0] != 2 {
		t.Fatal("primary must hold the newest checkpoint")
	}
}

func TestLoadFileFallsBackWhenPrimaryCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	first := &Checkpoint{Model: map[string][]float32{"w": {1}}}
	second := &Checkpoint{Model: map[string][]float32{"w": {2}}}
	if err := SaveFile(path, first); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, second); err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary the way a torn write would: truncate it.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, fromFallback, err := LoadFile(path)
	if err != nil {
		t.Fatalf("fallback load must succeed: %v", err)
	}
	if !fromFallback {
		t.Fatal("load must report that the fallback was used")
	}
	if got.Model["w"][0] != 1 {
		t.Fatal("fallback must return the last-good checkpoint")
	}
}

func TestLoadFileBothMissing(t *testing.T) {
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("missing checkpoint must error")
	}
}

func TestWriteRequiresModel(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Checkpoint{}); err == nil {
		t.Fatal("checkpoint without a model section must be rejected")
	}
}

// TestProgressGroupSizeRoundTrip: the sync-group size rides at the end
// of the progress section and survives a round trip.
func TestProgressGroupSizeRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	ck.Progress.GroupSize = 4
	got, err := Read(bytes.NewReader(encode(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Progress.GroupSize != 4 {
		t.Fatalf("GroupSize = %d, want 4", got.Progress.GroupSize)
	}
}

// TestProgressLegacyDecode: progress sections written before the
// scale-out work end right after the accuracy list; they must decode
// with GroupSize 0 (which train.Fit maps to the per-batch loop's group
// of 1), not error.
func TestProgressLegacyDecode(t *testing.T) {
	p := sampleCheckpoint().Progress
	p.GroupSize = 3
	enc, err := encodeProgress(p)
	if err != nil {
		t.Fatal(err)
	}
	legacy := enc[:len(enc)-4] // strip the trailing group-size field
	got, err := decodeProgress(legacy)
	if err != nil {
		t.Fatalf("legacy progress section must decode: %v", err)
	}
	if got.GroupSize != 0 {
		t.Fatalf("legacy GroupSize = %d, want 0", got.GroupSize)
	}
	if got.Epoch != p.Epoch || got.Step != p.Step {
		t.Fatalf("legacy decode mangled fields: %+v", got)
	}
}
