package main

import (
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// TestWorkloadsTiny runs every workload at tiny sizes, untraced and
// traced, and checks that each passes its checks and reports exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestWorkloadsTiny(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !equalSets(names, want) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, want)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		units[true][m.Name] = m.Unit
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, traced := range []bool{false, true} {
		res, err := newSuite(tinySizes, 3, 0.4, traced, "").runAll(names)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		for _, name := range names {
			o := res.Workloads[name]
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("traced=%v %s: %d of %d failed: %v", traced, name, o.Failed, o.Attempted, o.Notes)
			}
			var got []string
			for m, v := range o.Metrics {
				got = append(got, m)
				if !valid.MatchString(m) {
					t.Errorf("%s: metric name %q", name, m)
				}
				if units[traced][m] != v.Unit {
					t.Errorf("%s: %s reported in %q, declared in %q", name, m, v.Unit, units[traced][m])
				}
			}
			var declared []string
			for m := range units[traced] {
				declared = append(declared, m)
			}
			if !equalSets(got, declared) {
				t.Errorf("traced=%v %s: reported %d metrics, BENCHMARK.json declares %d", traced, name, len(got), len(declared))
			}
			for m := range o.Info {
				if !valid.MatchString(m) {
					t.Errorf("%s: info name %q", name, m)
				}
			}
		}
	}
}

// TestInjectedMismatchFails checks that a logit mismatch counts as a
// failed check and makes the run incorrect.
func TestInjectedMismatchFails(t *testing.T) {
	s := newSuite(tinySizes, 5, 0.2, false, "")
	s.corrupt = true
	res, err := s.runAll([]string{"resnet20-sparse"})
	if err != nil {
		t.Fatal(err)
	}
	if o := res.Workloads["resnet20-sparse"]; o.Correct || o.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failure", o.Correct, o.Failed)
	}
}

func TestFixtureLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "fixtures.json")
	for i, c := range []struct {
		key  string
		acc  float64
		want bool
	}{{"a", 0.5, true}, {"a", 0.5, true}, {"b", 0.25, true}, {"a", 0.25, false}} {
		if _, ok, err := checkLedger(path, c.key, c.acc); err != nil || ok != c.want {
			t.Fatalf("case %d: ok=%v err=%v, want ok=%v", i, ok, err, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
