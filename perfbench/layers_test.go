package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"mlorass/internal/experiment"
	"mlorass/internal/routing"
)

func TestStackLayer(t *testing.T) {
	const (
		exp    = "mlorass/internal/experiment."
		simGo  = "mlorass/internal/experiment/sim.go"
		malloc = "runtime.mallocgc"
	)
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	cases := []struct {
		name   string
		frames []frame // innermost first
		want   string
	}{
		{"innermost layer frame wins", []frame{
			f("mlorass/internal/radio.(*Medium).Begin", "mlorass/internal/radio/medium.go"),
			f(exp+"(*sim).transmit", simGo),
			f("mlorass/internal/eventsim.(*Simulator).step", "mlorass/internal/eventsim/eventsim.go"),
		}, "radio"},
		{"allocator, math, rng, geo and stats pass to their caller", []frame{
			f(malloc, "runtime/malloc.go"),
			f("math.archLog", "math/log_asm.go"),
			f("mlorass/internal/rng.(*Source).Norm", "mlorass/internal/rng/rng.go"),
			f("mlorass/internal/geo.Point.Dist", "mlorass/internal/geo/geo.go"),
			f("mlorass/internal/stats.(*Summary).Add", "mlorass/internal/stats/stats.go"),
			f(exp+"(*sim).overhear.func1", simGo),
			f(exp+"(*sim).resolve", simGo),
		}, "overhear"},
		{"no repository frame is runtime", []frame{
			f("runtime.scanobject", "runtime/mgcmark.go"),
			f("runtime.gcBgMarkWorker", "runtime/mgc.go"),
		}, "runtime"},
		{"driver frames alone are runtime", []frame{
			f("main.run", "perfbench/main.go"),
		}, "runtime"},
		{"sim_mac.go is mac", []frame{
			f(exp+"(*sim).ackTimeout", "mlorass/internal/experiment/sim_mac.go"),
			f(exp+"Run.func5", simGo),
		}, "mac"},
		{"netserver mac.go is mac", []frame{
			f("mlorass/internal/netserver.(*Server).scheduleAck", "mlorass/internal/netserver/mac.go"),
		}, "mac"},
		{"netserver.go is netserver", []frame{
			f("mlorass/internal/netserver.(*Server).Ingest", "mlorass/internal/netserver/netserver.go"),
		}, "netserver"},
		{"devPos is mobility", []frame{
			f("mlorass/internal/geo.(*Polyline).At", "mlorass/internal/geo/geo.go"),
			f(exp+"(*sim).devPos", simGo),
			f(exp+"(*sim).overhear", simGo),
		}, "mobility"},
		{"spatial.go is grid", []frame{
			f(exp+"(*devIndex).candidates", "mlorass/internal/experiment/spatial.go"),
			f(exp+"(*sim).overhear", simGo),
		}, "grid"},
		{"store.go is store", []frame{
			f("encoding/json.(*decodeState).object", "encoding/json/decode.go"),
			f(exp+"loadResult", "mlorass/internal/experiment/store.go"),
			f(exp+"ParallelSweep.func1", "mlorass/internal/experiment/parallel.go"),
		}, "store"},
		{"parallel.go is sweep", []frame{
			f(exp+"runPool.func1", "mlorass/internal/experiment/parallel.go"),
		}, "sweep"},
		{"rcaetx.go is estimator", []frame{
			f("mlorass/internal/core.(*GatewayEstimator).Observe", "mlorass/internal/core/rcaetx.go"),
			f(exp+"(*sim).tick", simGo),
		}, "estimator"},
		{"robc.go is overhear", []frame{
			f("mlorass/internal/core.ROBCTransfer", "mlorass/internal/core/robc.go"),
			f(exp+"(*sim).overhear", simGo),
		}, "overhear"},
		{"generic kernel method is eventsim", []frame{
			f("mlorass/internal/eventsim.(*heap[...]).siftDown", "mlorass/internal/eventsim/eventsim.go"),
		}, "eventsim"},
		{"rest of the experiment package is sim", []frame{
			f(exp+"Run", simGo),
		}, "sim"},
		{"unmapped repository package stops as unattributed", []frame{
			f("mlorass/internal/newlayer.Work", "mlorass/internal/newlayer/work.go"),
			f(exp+"(*sim).overhear", simGo),
		}, unattributed},
	}
	for _, tc := range cases {
		if got := stackLayer(tc.frames); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestFuncName(t *testing.T) {
	const pkg = "mlorass/internal/experiment"
	for fn, want := range map[string]string{
		pkg + ".(*sim).overhear.func1":     "overhear",
		pkg + ".(*sim).overhear":           "overhear",
		pkg + ".Run.func3":                 "Run",
		pkg + ".(*devIndex[...]).refresh":  "refresh",
		pkg + ".(*device).bannedSendBack":  "bannedSendBack",
		pkg + ".glob..func1":               "glob",
		pkg + ".ParallelSweep":             "ParallelSweep",
		pkg + ".(*FarmSweep).Absorb.func2": "Absorb",
	} {
		if p := funcPackage(fn); p != pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, p, pkg)
		}
		if got := funcName(fn, pkg); got != want {
			t.Errorf("funcName(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileAttribution decodes a real CPU profile of a small run and
// checks that the layer map claims its samples.
func TestProfileAttribution(t *testing.T) {
	cfg := experiment.QuickConfig()
	cfg.Scheme = routing.SchemeROBC
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := experiment.Run(cfg); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stacks, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(stacks)
	if a.samples < 10 || a.total <= 0 {
		t.Fatalf("profile decoded to %d samples, %.3fs", a.samples, a.total)
	}
	if s := a.unattributedShare(); s > maxUnattributed {
		t.Errorf("unattributed share %.3f > %.2f: %v", s, maxUnattributed, a.self)
	}
	if a.self["eventsim"]+a.self["sim"]+a.self["overhear"] == 0 {
		t.Errorf("no time in the simulation layers: %v", a.self)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{{0x0a}, {0x0a, 0x05, 0x01}, {0xff}} {
		if _, err := parseProfile(b); err == nil {
			t.Errorf("parseProfile(%x) accepted malformed input", b)
		}
	}
}
