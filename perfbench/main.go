// Command perfbench is the repository benchmark. It times the simulator
// through the entry points the CLIs use — experiment.Run, and
// experiment.ParallelSweep over a runstore.Store — and measures every layer
// from outside the simulator: clocks around those calls, public Result
// fields, runtime/metrics, a CPU profile of one traced pass, and a span sink
// the driver owns. Nothing inside the simulator is changed for it.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload robc-city --seed 1 --seconds 24 --trace 0
//
// Each invocation pins GOMAXPROCS for its workload, runs one discarded
// warm-up pass, then alternates set-up samples with timed passes (each after
// a forced GC) for --seconds and reports medians. With --trace 1 it then runs
// one more pass with a sampled tracer, a CPU profile and the span sink, and
// reports the per-layer metrics instead of the end-to-end ones.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it carries the
// run's provenance. Profiles, spans and a run record (provenance, every
// per-pass sample, every metric) go to .bench_build/out/<run>/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"mlorass/internal/telemetry"
)

const (
	// minPasses is the fewest timed passes a run takes, however long they
	// last, so the median always has a middle.
	minPasses = 5
	// profileHz is the traced pass's CPU sampling rate, 2.5 times the
	// runtime/pprof default. Linux delivers the profiling signal at the
	// scheduler tick, so faster rates drop samples: on a 2-vCPU Xeon VM a
	// 1.5 s pass kept 88 % of its CPU time at 250 Hz and 46 % at 500 Hz.
	profileHz = 250
	// traceEvery samples one message in traceEvery for the traced pass's
	// per-packet tracer (telemetry.NewTracer's rate).
	traceEvery = 16
	// outRoot holds per-run artefacts and temporary run stores.
	outRoot = ".bench_build"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one timed call.
type sample struct {
	Wall  time.Duration `json:"wall_ns"`
	Alloc uint64        `json:"alloc_bytes"`
}

// runRecord is the run's artefact: everything needed to recompute the
// reported metrics.
type runRecord struct {
	Provenance provenance `json:"provenance"`
	Setups     []sample   `json:"setups"`
	Passes     []sample   `json:"passes"`
	Errors     []string   `json:"errors,omitempty"`
	Warnings   []string   `json:"warnings,omitempty"`
	Report     report     `json:"report"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 24, "how long the timed passes run")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v must be positive", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	runtime.GOMAXPROCS(w.procs)

	out := filepath.Join(outRoot, "out", fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outRoot, "stores-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	c := newChecker()
	r, err := w.open(*seed, tmp, c)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}

	// Warm-up: the first pass in a process runs markedly slower (cold
	// caches, heap growth), so it is checked but not timed.
	if _, err := r.pass(); err != nil {
		return fmt.Errorf("%s warm-up: %w", *name, err)
	}
	rec := runRecord{}
	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	for len(rec.Passes) < minPasses || time.Since(start) < budget {
		for i := 0; i < w.setupsPerPass; i++ {
			s, err := r.setup()
			if err != nil {
				return fmt.Errorf("%s set-up: %w", *name, err)
			}
			rec.Setups = append(rec.Setups, s)
		}
		s, err := r.pass()
		if err != nil {
			return fmt.Errorf("%s pass: %w", *name, err)
		}
		rec.Passes = append(rec.Passes, s)
	}
	runS := median(walls(rec.Passes))

	metrics := map[string]metric{}
	if *trace == 0 {
		metrics["run_s"] = metric{runS, "s"}
		metrics["setup_s"] = metric{median(walls(rec.Setups)), "s"}
		metrics["alloc_mb"] = metric{median(allocs(rec.Passes)) / 1e6, "MB"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		metrics, err = tracedPass(r, w.procs, out, runS)
		if err != nil {
			return fmt.Errorf("%s traced pass: %w", *name, err)
		}
		if share := metrics["profile.unattributed_share"].Value; share > maxUnattributed {
			rec.Warnings = append(rec.Warnings, fmt.Sprintf(
				"profile.unattributed_share %.3f exceeds %.2f: a layer is missing from the layer map", share, maxUnattributed))
		}
	}

	rec.Provenance = newProvenance(*name, w.procs, *seed, *trace, *seconds, len(rec.Passes), len(rec.Setups))
	rec.Errors = c.errs
	rec.Report = report{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   metrics,
	}
	if err := writeJSON(filepath.Join(out, "run.json"), rec); err != nil {
		return err
	}
	for _, e := range c.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	for _, w := range rec.Warnings {
		fmt.Fprintln(os.Stderr, "perfbench: warning:", w)
	}
	prov, err := json.Marshal(rec.Provenance)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec.Report)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n%s\n", prov, line)
	return nil
}

// tracedPass runs the workload once more with a sampled tracer, a CPU
// profile and the driver's span sink, writes the profile and spans next to
// the run record, and derives the per-layer metrics. workers is the sweep
// pool size, and untracedS the median untraced pass, the base of the
// tracing-overhead ratio.
func tracedPass(r runner, workers int, out string, untracedS float64) (map[string]metric, error) {
	profPath := filepath.Join(out, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	spans := newSpanRecorder()
	tracer := telemetry.NewTracer(&telemetry.MemSink{}, traceEvery)
	runtime.GC()
	rt0 := readRuntime()
	// Setting the rate first is the only way to raise it: StartCPUProfile
	// then keeps it (the runtime prints a note that it cannot change a
	// running profile's rate) and records it in the profile's period.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t0 := time.Now()
	tr, terr := r.traced(tracer, spans)
	wall := time.Since(t0)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if terr != nil {
		return nil, terr
	}
	if err := spans.write(filepath.Join(out, "spans.jsonl")); err != nil {
		return nil, err
	}
	stacks, err := readProfile(profPath)
	if err != nil {
		return nil, err
	}
	return layerMetrics(tr, attribute(stacks), spans.summary(workers), rt1.sub(rt0), wall.Seconds()/untracedS), nil
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func walls(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.Wall.Seconds()
	}
	return out
}

func allocs(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.Alloc)
	}
	return out
}

// median returns the middle of xs (the mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
