package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mlorass/internal/experiment"
	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/telemetry"
)

// Workload sizes. A city pass covers midnight to 09:00, the night plus the
// morning peak: long enough that the forwarding path dominates robc-city, and
// short enough (about 1 s here) that a run takes a dozen passes and reports
// their median. The figure sweeps use the -quick scale with figReps
// replications per cell, so a cold sweep is about 2 s of many small runs.
const (
	cityHorizon = 9 * time.Hour
	figReps     = 10
	figWorkers  = 2
)

// workload is one named set of inputs.
type workload struct {
	// procs pins GOMAXPROCS: the single runs are serial, so a second P only
	// adds scheduler and GC noise; the sweeps run one P per worker.
	procs int
	// setupsPerPass is how many set-up samples each timed pass is
	// interleaved with.
	setupsPerPass int
	// open builds the workload's inputs from seed. tmp is a directory the
	// runner may fill with run stores; the caller removes it.
	open func(seed uint64, tmp string, c *checker) (runner, error)
}

var workloads = map[string]workload{
	// robc-city is the paper's headline scheme over the default city.
	"robc-city": {procs: 1, setupsPerPass: 3,
		open: openCity(routing.SchemeROBC, experiment.MACConfig{})},
	// norouting-mac skips the forwarding path entirely and drives the
	// network server and MAC (downlinks, acks, retransmissions) instead.
	"norouting-mac": {procs: 1, setupsPerPass: 3,
		open: openCity(routing.SchemeNoRouting, experiment.MACConfig{ADR: true, Confirmed: true})},
	// fig-sweep is `expsweep -fig 8 -env urban -quick -reps 10` into a
	// fresh store: many small runs, per-run set-up, store writes, pool.
	"fig-sweep": {procs: figWorkers, setupsPerPass: 1, open: openSweep(false)},
	// fig-resume re-runs the same sweep against the store it filled: store
	// reads, artefact decoding and the executor, no simulation.
	"fig-resume": {procs: figWorkers, setupsPerPass: 3, open: openSweep(true)},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// runner drives one workload within one invocation. Every method calls the
// workload's entry point once, checks the outputs through the runner's
// checker, and returns the timed call.
type runner interface {
	// setup times the same call with the horizon cut to one slot interval.
	setup() (sample, error)
	// pass times one full call.
	pass() (sample, error)
	// traced makes one full call with the tracer and span sink attached.
	traced(tr *telemetry.Tracer, spans *spanRecorder) (tracedRun, error)
}

// tracedRun is what the traced pass reports besides its profile and spans.
type tracedRun struct {
	tally        tally
	kernelEvents uint64
	traceEvents  uint64
	store        storeUse
}

// storeUse is the run store traffic of a traced sweep and the store's size.
type storeUse struct {
	bytes, hits, misses uint64
}

// timed settles the heap, then times fn and counts the bytes it allocates.
func timed(fn func() error) (sample, error) {
	runtime.GC()
	a0 := readRuntime().allocBytes
	t0 := time.Now()
	err := fn()
	s := sample{Wall: time.Since(t0)}
	s.Alloc = readRuntime().allocBytes - a0
	return s, err
}

// oneSlot cuts cfg's horizon to one message interval: the run builds the
// dataset, the fleet, every device and the first scheduled events, and
// stops just after the first slot.
func oneSlot(cfg experiment.Config) experiment.Config {
	cfg.Duration = cfg.MsgInterval + time.Second
	return cfg
}

// cityRunner runs one experiment.Run per pass over the default city.
type cityRunner struct {
	cfg experiment.Config
	c   *checker
}

func openCity(scheme routing.Scheme, mac experiment.MACConfig) func(uint64, string, *checker) (runner, error) {
	return func(seed uint64, _ string, c *checker) (runner, error) {
		cfg := experiment.DefaultConfig()
		cfg.Seed = seed
		cfg.Scheme = scheme
		cfg.MAC = mac
		cfg.Duration = cityHorizon
		return &cityRunner{cfg: cfg, c: c}, nil
	}
}

func (r *cityRunner) run(key string, cfg experiment.Config) (sample, *experiment.Result, error) {
	var res *experiment.Result
	s, err := timed(func() (err error) {
		res, err = experiment.Run(cfg)
		return err
	})
	if err != nil {
		return s, nil, err
	}
	r.c.result(key, res)
	var t tally
	t.add(res)
	r.c.same(key, t.String())
	return s, res, nil
}

func (r *cityRunner) setup() (sample, error) {
	s, _, err := r.run("setup", oneSlot(r.cfg))
	return s, err
}

func (r *cityRunner) pass() (sample, error) {
	s, _, err := r.run("pass", r.cfg)
	return s, err
}

func (r *cityRunner) traced(tr *telemetry.Tracer, spans *spanRecorder) (tracedRun, error) {
	cfg := r.cfg
	cfg.Telemetry.Trace = tr
	var res *experiment.Result
	err := spans.around("run", "", func() (err error) {
		_, res, err = r.run("pass", cfg)
		return err
	})
	if err != nil {
		return tracedRun{}, err
	}
	var t tally
	t.add(res)
	k := res.Telemetry.Counters
	return tracedRun{tally: t, kernelEvents: k.KernelEvents, traceEvents: k.TraceEvents}, nil
}

// sweepRunner runs the Fig 8/9/12/13 sweep through ParallelSweep and a run
// store. Cold (fig-sweep) passes each get a fresh store; resume
// (fig-resume) passes re-read the stores filled when the runner opened.
type sweepRunner struct {
	base      experiment.Config
	tmp       string
	resume    bool
	warm      *runstore.Store // full sweep, filled at open (resume only)
	warmSetup *runstore.Store // one-slot sweep, filled at open (resume only)
	checked   bool            // a cold pass has been re-read from its store
	stores    int
	c         *checker
}

func openSweep(resume bool) func(uint64, string, *checker) (runner, error) {
	return func(seed uint64, tmp string, c *checker) (runner, error) {
		base := experiment.QuickConfig()
		base.Seed = seed
		r := &sweepRunner{base: base, tmp: tmp, resume: resume, c: c}
		if !resume {
			return r, nil
		}
		// The filled stores are fig-resume's input, built once, untimed.
		var err error
		if r.warm, err = r.fresh(); err != nil {
			return nil, err
		}
		if _, _, err = r.sweep("pass", r.base, r.warm, false, nil, nil); err != nil {
			return nil, err
		}
		if r.warmSetup, err = r.fresh(); err != nil {
			return nil, err
		}
		if _, _, err = r.sweep("setup", oneSlot(r.base), r.warmSetup, false, nil, nil); err != nil {
			return nil, err
		}
		return r, nil
	}
}

// fresh opens an empty store under the runner's temp directory.
func (r *sweepRunner) fresh() (*runstore.Store, error) {
	r.stores++
	return runstore.Open(filepath.Join(r.tmp, fmt.Sprintf("store-%d", r.stores)))
}

// cells is the number of replications one sweep runs.
func cells() int {
	return len(experiment.GatewaySweep()) * len(experiment.Schemes()) * figReps
}

// sweep runs one figure sweep of base against st and checks it: every cell's
// invariants, the store traffic (all misses and puts cold, all hits on
// resume), and the summed model values plus rendered tables, which must be
// byte-identical for every sweep of the same key — cold or resumed.
func (r *sweepRunner) sweep(key string, base experiment.Config, st *runstore.Store, resume bool,
	tr *telemetry.Tracer, spans *spanRecorder) (sample, tracedRun, error) {
	base.Telemetry.Trace = tr
	if spans != nil {
		base.Telemetry.Spans = spans
	}
	var points []experiment.AggregatePoint
	call := func() (err error) {
		points, err = experiment.ParallelSweep(base, experiment.Urban,
			experiment.SweepOptions{Workers: figWorkers, Reps: figReps, Store: st})
		return err
	}
	if spans != nil {
		inner := call
		call = func() error { return spans.around("sweep", key, inner) }
	}
	before := st.Stats()
	s, err := timed(call)
	if err != nil {
		return s, tracedRun{}, err
	}
	after := st.Stats()
	hits, misses, puts := after.Hits-before.Hits, after.Misses-before.Misses, after.Puts-before.Puts
	n := uint64(cells())
	if resume {
		r.c.expect(hits == n && misses == 0 && puts == 0,
			"%s resume: %d hits, %d misses, %d puts; want all %d cells from the store", key, hits, misses, puts, n)
	} else {
		r.c.expect(misses == n && puts == n,
			"%s cold sweep: %d misses, %d puts; want %d of each", key, misses, puts, n)
	}
	tl := tracedRun{store: storeUse{hits: hits, misses: misses}}
	for _, p := range points {
		for _, res := range p.Reps {
			r.c.result(key, res)
			tl.tally.add(res)
			tl.kernelEvents += res.Telemetry.Counters.KernelEvents
			tl.traceEvents += res.Telemetry.Counters.TraceEvents
		}
	}
	var tables bytes.Buffer
	experiment.RenderFigureTables(&tables, points, figReps, false)
	r.c.same(key, tl.tally.String()+"\n"+tables.String())
	return s, tl, nil
}

func (r *sweepRunner) setup() (sample, error) {
	if r.resume {
		s, _, err := r.sweep("setup", oneSlot(r.base), r.warmSetup, true, nil, nil)
		return s, err
	}
	return r.coldOnce("setup", oneSlot(r.base))
}

func (r *sweepRunner) pass() (sample, error) {
	if r.resume {
		s, _, err := r.sweep("pass", r.base, r.warm, true, nil, nil)
		return s, err
	}
	return r.coldOnce("pass", r.base)
}

// coldOnce times one cold sweep into a fresh store and removes the store.
// The first full cold sweep is also resumed, untimed, so fig-sweep checks
// that its store serves every cell and reproduces the tables.
func (r *sweepRunner) coldOnce(key string, base experiment.Config) (sample, error) {
	st, err := r.fresh()
	if err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(st.Dir())
	s, _, err := r.sweep(key, base, st, false, nil, nil)
	if err != nil || key != "pass" || r.checked {
		return s, err
	}
	r.checked = true
	_, _, err = r.sweep(key, base, st, true, nil, nil)
	return s, err
}

func (r *sweepRunner) traced(tr *telemetry.Tracer, spans *spanRecorder) (tracedRun, error) {
	st := r.warm
	if !r.resume {
		var err error
		if st, err = r.fresh(); err != nil {
			return tracedRun{}, err
		}
		defer os.RemoveAll(st.Dir())
	}
	_, tl, err := r.sweep("pass", r.base, st, r.resume, tr, spans)
	if err != nil {
		return tracedRun{}, err
	}
	tl.store.bytes, err = dirBytes(st.Dir())
	return tl, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (uint64, error) {
	var n uint64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += uint64(info.Size())
		return nil
	})
	return n, err
}
