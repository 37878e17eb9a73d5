package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// host describes the machine a results file was measured on.
type host struct {
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GOARCH     string   `json:"goarch"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model,omitempty"`
	CPUFlags   []string `json:"cpu_flags,omitempty"`
}

// readHost fills the host block; the CPU model and its SIMD flags (avx2,
// fma, avx512*) come from /proc/cpuinfo where it exists.
func readHost() *host {
	h := &host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			h.CPUModel = strings.TrimSpace(val)
		case "flags":
			for _, fl := range strings.Fields(val) {
				if fl == "avx2" || fl == "fma" || strings.HasPrefix(fl, "avx512") {
					h.CPUFlags = append(h.CPUFlags, fl)
				}
			}
			return h
		}
	}
	return h
}

// spec is the part of BENCHMARK.json that -compare and the package test
// read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &s, nil
}

// runCompare prints, for every (workload, metric) pair in two sets of
// results files, each set's median and quartiles, and flags end-to-end
// pairs whose medians differ by more than the metric's bound. It exits 1
// when a pair got worse by more than its bound.
func runCompare(specPath string, args []string, stdout, stderr io.Writer) int {
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var sets [2][]*results
	side := 0
	for _, a := range args {
		if a == "--" {
			side++
			continue
		}
		if side > 1 {
			fmt.Fprintln(stderr, "bench: compare: more than one --")
			return 2
		}
		var res results
		data, err := os.ReadFile(a)
		if err == nil {
			err = json.Unmarshal(data, &res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: compare: %s: %v\n", a, err)
			return 2
		}
		sets[side] = append(sets[side], &res)
	}
	if len(sets[0]) == 0 || len(sets[1]) == 0 {
		fmt.Fprintln(stderr, "bench: usage: -compare a1.json ... -- b1.json ...")
		return 2
	}
	for i, set := range sets {
		for _, res := range set {
			if res.Host != nil {
				fmt.Fprintf(stdout, "set %c host: %d cpus, GOMAXPROCS %d, %s, %s, %s %v\n", 'A'+i,
					res.Host.CPUs, res.Host.GOMAXPROCS, res.Host.GOARCH, res.Host.GoVersion, res.Host.CPUModel, res.Host.CPUFlags)
				break
			}
		}
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range sp.PerLayer {
		better[m.Name] = m.Better
	}

	values := func(set []*results, w, m string) []float64 {
		var vs []float64
		for _, res := range set {
			if o := res.Workloads[w]; o != nil {
				if v, ok := o.Metrics[m]; ok {
					vs = append(vs, v.Value)
				}
			}
		}
		return vs
	}
	pairs := map[[2]string]bool{}
	for _, set := range sets {
		for _, res := range set {
			for w, o := range res.Workloads {
				for m := range o.Metrics {
					pairs[[2]string{w, m}] = true
				}
				if !o.Correct {
					fmt.Fprintf(stdout, "%s: a run failed its checks (%d of %d failed)\n", w, o.Failed, o.Attempted)
				}
			}
		}
	}
	keys := make([][2]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	code := 0
	fmt.Fprintf(stdout, "%-20s %-36s %26s %26s %8s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "delta", "verdict")
	for _, k := range keys {
		a, b := values(sets[0], k[0], k[1]), values(sets[1], k[0], k[1])
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(stdout, "%-20s %-36s missing from one set\n", k[0], k[1])
			continue
		}
		ma, mb := median(a), median(b)
		delta := (mb - ma) / math.Abs(ma)
		if ma == 0 {
			delta = 0
		}
		verdict := ""
		if bound, ok := bounds[k[1]]; ok {
			verdict = "within bound"
			worse := delta > bound
			if better[k[1]] == "higher" {
				worse = -delta > bound
			}
			switch {
			case worse:
				verdict, code = fmt.Sprintf("WORSE beyond bound %.2f", bound), 1
			case math.Abs(delta) > bound:
				verdict = fmt.Sprintf("better beyond bound %.2f", bound)
			}
		}
		qa1, qa3 := quartiles(a)
		qb1, qb3 := quartiles(b)
		fmt.Fprintf(stdout, "%-20s %-36s %26s %26s %+7.1f%%  %s\n", k[0], k[1],
			fmt.Sprintf("%.4g [%.4g %.4g]", ma, qa1, qa3), fmt.Sprintf("%.4g [%.4g %.4g]", mb, qb1, qb3),
			100*delta, verdict)
	}
	return code
}
