// Command odq-infer runs inference on a synthetic test set under a chosen
// quantization scheme — float, static INT-k, DRQ or ODQ — reporting
// accuracy and, for the dynamic schemes, the precision mix.
//
// Usage:
//
//	odq-infer -model resnet20 -dataset c10 -ckpt resnet20.ckpt -scheme odq -threshold 0.5
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drq"
	"repro/internal/infer"
	"repro/internal/maskio"
	"repro/internal/models"
	"repro/internal/telemetry/telemetryflag"
	"repro/internal/train"
)

func main() {
	modelName := flag.String("model", "resnet20", "model architecture (must match the checkpoint)")
	dsName := flag.String("dataset", "c10", "dataset: c10, c100 or mnist")
	scale := flag.Float64("width", 0.25, "channel width multiplier (must match the checkpoint)")
	qatBits := flag.Int("qat", 4, "QAT bit width the model was built with")
	ckpt := flag.String("ckpt", "", "checkpoint path (empty = randomly initialized)")
	scheme := flag.String("scheme", "odq", "scheme: "+infer.SchemeHelp())
	threshold := flag.Float64("threshold", 0.5, "ODQ sensitivity threshold")
	packed := flag.Bool("packed", false, "run the packed-INT4 quantized-domain pipeline (odq scheme, flat sequential models e.g. vgg16)")
	samples := flag.Int("samples", 128, "test samples")
	seed := flag.Int64("seed", 1, "random seed")
	dump := flag.String("dump", "", "write per-layer profiles (with ODQ masks) to this path for odq-sim")
	tf := telemetryflag.Register(flag.CommandLine)
	flag.Parse()

	// Validate everything up front so a bad flag combination exits with
	// one actionable line instead of a panic mid-inference.
	if *samples < 1 {
		fail("-samples must be >= 1 (got %d)", *samples)
	}
	if *scale <= 0 {
		fail("-width must be > 0 (got %g)", *scale)
	}
	if *qatBits < 0 || *qatBits > 16 {
		fail("-qat must be in [0,16] (got %d)", *qatBits)
	}
	if *threshold < 0 {
		fail("-threshold must be >= 0 (got %g)", *threshold)
	}
	switch *dsName {
	case "c10", "c100", "mnist":
	default:
		fail("unknown dataset %q (want c10, c100 or mnist)", *dsName)
	}
	if _, err := infer.SchemeByName(*scheme); err != nil {
		fail("%v", err)
	}
	if *dump != "" && *scheme == "float" {
		fail("the float scheme records no profiles: -dump needs a quantized -scheme")
	}

	flushTelemetry, err := tf.Activate()
	if err != nil {
		fail("%v", err)
	}

	classes := 10
	if *dsName == "c100" {
		classes = 100
	}
	var testDS *dataset.Dataset
	if *dsName == "mnist" {
		testDS = dataset.MNISTLike(*samples, *seed+200)
	} else {
		testDS = dataset.SyntheticImages(classes, *samples, 3, 32, 32, *seed+200)
	}

	net, err := infer.LoadModel(*modelName, models.Config{
		Classes: classes, Scale: *scale, QATBits: *qatBits, Seed: *seed,
	}, *ckpt)
	if err != nil {
		fail("%v", err)
	}

	opts := []infer.Option{infer.WithThreshold(float32(*threshold)), infer.WithProfiling()}
	if *dump != "" {
		opts = append(opts, infer.WithMaskRecording())
	}
	if *packed {
		opts = append(opts, infer.WithPackedDomain())
	}
	sess, err := infer.NewSession(net, *scheme, opts...)
	if err != nil {
		fail("%v", err)
	}
	if sess.PackedDomain() {
		fmt.Printf("packed-domain pipeline: %d fused convs\n", sess.Pipeline().FusedConvs())
	}

	acc := train.EvaluateForward(sess.Forward, testDS, 32)
	fmt.Printf("scheme=%s accuracy=%.4f\n", *scheme, acc)

	// Per-family precision-mix reports.
	switch e := sess.Exec().(type) {
	case *core.Exec:
		reportODQ(e)
	case *drq.Exec:
		reportDRQ(e)
	}

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fail("%v", err)
		}
		err = maskio.Write(f, sess.Exec().Profiles())
		f.Close()
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("profiles written to %s\n", *dump)
	}
	if err := flushTelemetry(); err != nil {
		fail("%v", err)
	}
}

// fail prints a one-line actionable message and exits 1.
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "odq-infer: "+format+"\n", args...)
	os.Exit(1)
}

func reportODQ(e *core.Exec) {
	fmt.Printf("sensitive outputs (INT4): %.1f%%, insensitive (INT2): %.1f%%\n",
		e.SensitiveFraction()*100, (1-e.SensitiveFraction())*100)
}

func reportDRQ(e *drq.Exec) {
	var hi, tot int64
	for _, p := range e.Profiles() {
		hi += p.HighInputMACs
		tot += p.TotalMACs
	}
	if tot > 0 {
		fmt.Printf("high-precision MACs: %.1f%%\n", 100*float64(hi)/float64(tot))
	}
}
