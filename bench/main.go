// Command bench is the repository's end-to-end, layer-by-layer benchmark.
//
// One invocation builds deterministic fixtures, runs one workload (or all
// four) with tracing off, checks the program's outputs, and prints every
// metric as "workload metric value unit", followed by one JSON line with
// the outcome:
//
//	bench -workload resnet20-sparse -seed 1 -seconds 18 -trace 0
//
// With -trace 1 the workload runs a quarter of its length untraced and a
// quarter traced, and the JSON line carries the per-layer metrics instead
// of the end-to-end ones. -compare diffs sets of results files written
// with -out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/telemetry/olog"
)

// workloads are the benchmark's traffic mixes, in run order. README.md
// records why each exists.
var workloads = []struct {
	name string
	run  func(r *run) error
}{
	{"resnet20-sparse", func(r *run) error { return runResNet(r, sparseThreshold, true) }},
	{"resnet20-dense", func(r *run) error { return runResNet(r, denseThreshold, false) }},
	{"lenet-serve", runServe},
	{"resnet20-train-dp2", runTrain},
}

func main() {
	// The serving and dist layers log lifecycle events at info level on
	// stderr; the benchmark's own lines are the report.
	olog.Setup(olog.Options{Level: "warn"}) //nolint:errcheck // constant, valid options
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all four in order)")
	seed := fs.Int64("seed", 1, "seed of the held-out inputs, training data and arrival times")
	seconds := fs.Float64("seconds", 18, "measured seconds of one untraced workload run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as a Chrome/Perfetto trace to this file")
	out := fs.String("out", "", "also write the results, with a host block, to this JSON file")
	compare := fs.Bool("compare", false, "compare results files: -compare a1.json a2.json ... -- b1.json b2.json ...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare("BENCHMARK.json", fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -seconds > 0, -trace 0 or 1 and no positional arguments")
		return 2
	}
	names, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	s := newSuite(fullSizes, *seed, *seconds, *trace == 1, ledgerPath)
	res, err := s.runAll(names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, name := range names {
		res.Workloads[name].printLines(stdout, name)
	}
	if *out != "" {
		res.Host = readHost()
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *traceOut != "" && s.spans != nil {
		if err := s.spans.writeFile(*traceOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, ok := res.summaryLine(names)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !ok {
		return 1
	}
	return 0
}

func selectWorkloads(name string) ([]string, error) {
	var all []string
	for _, w := range workloads {
		if name == "" || name == w.name {
			all = append(all, w.name)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return all, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run: the checks' tally, the declared metrics of
// the run's mode, and informational values (fixture build time, error
// rate, realized sensitivity) that are printed but carry no bound.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]metricValue `json:"info,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

func (o *outcome) printLines(w io.Writer, workload string) {
	for _, m := range []map[string]metricValue{o.Metrics, o.Info} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s %s %v %s\n", workload, k, m[k].Value, m[k].Unit)
		}
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "%s check-failed %s\n", workload, n)
	}
}

// results is what -out writes and -compare reads.
type results struct {
	Host      *host               `json:"host,omitempty"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Workloads map[string]*outcome `json:"workloads"`
}

// summaryLine is the last line of standard output: the workload's outcome
// when one ran, otherwise the union with metrics keyed "workload/metric".
func (r *results) summaryLine(names []string) (outcome, bool) {
	if len(names) == 1 {
		o := *r.Workloads[names[0]]
		o.Info, o.Notes = nil, nil
		return o, o.Correct
	}
	all := outcome{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		o := r.Workloads[name]
		all.Correct = all.Correct && o.Correct
		all.Attempted += o.Attempted
		all.Failed += o.Failed
		for k, v := range o.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	return all, all.Correct
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
