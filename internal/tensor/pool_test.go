package tensor

import "testing"

// TestScratchPoolsSteadyStateNoAllocs checks that once a buffer of each
// element type is pooled, a Get/Put cycle allocates nothing: neither the
// buffer nor the wrapper sync.Pool carries it in.
func TestScratchPoolsSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const n = 1000
	cycles := map[string]func(){
		"int32":   func() { PutInt32(GetInt32(n)) },
		"int64":   func() { PutInt64(GetInt64(n)) },
		"float32": func() { PutFloat32(GetFloat32(n)) },
		"uint64":  func() { PutUint64(GetUint64(n)) },
		"uint8":   func() { PutUint8(GetUint8(n)) },
		"bool":    func() { PutBool(GetBool(n)) },
	}
	for name, cycle := range cycles {
		if a := testing.AllocsPerRun(100, cycle); a != 0 {
			t.Errorf("%s: %v allocs per Get/Put cycle, want 0", name, a)
		}
	}
}
