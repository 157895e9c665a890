package experiment

import (
	"testing"
	"time"

	"mlorass/internal/obs"
	"mlorass/internal/telemetry"
)

// These tests lock the live-scrape contract end to end: a Registry attached
// through Config.Telemetry.Live is scraped continuously while the engine
// runs — under -race this is the proof that a /metrics request can never
// tear a hot-path counter — and the registry's post-run state must equal
// the run's own quiesced telemetry.

func scrapeDuringRun(t *testing.T, cfg Config) {
	t.Helper()
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(256)
	cfg.Telemetry.Live = reg
	cfg.Telemetry.Spans = flight

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg)
		done <- outcome{res, err}
	}()

	var scrapes int
	var lastGen uint64
	var out outcome
	for running := true; running; {
		select {
		case out = <-done:
			running = false
		default:
			s := reg.Snapshot()
			if s.Counters.Generated < lastGen {
				t.Fatalf("live Generated regressed %d -> %d", lastGen, s.Counters.Generated)
			}
			lastGen = s.Counters.Generated
			scrapes++
			time.Sleep(200 * time.Microsecond)
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if scrapes == 0 {
		t.Fatal("no scrape overlapped the run")
	}

	// Quiesced: the registry's merged base must match the result exactly.
	got := reg.Snapshot()
	want := out.res.Telemetry
	if got.Counters.Generated != want.Counters.Generated ||
		got.Counters.FramesOnAir != want.Counters.FramesOnAir ||
		got.Counters.UplinkDeliveries != want.Counters.UplinkDeliveries ||
		got.Counters.ServerFresh != want.Counters.ServerFresh {
		t.Errorf("registry counters diverged from Result.Telemetry:\n got %+v\nwant %+v",
			got.Counters, want.Counters)
	}
	if got.Delay != want.Delay {
		t.Errorf("registry delay histogram diverged: got %v want %v",
			got.Delay.String(), want.Delay.String())
	}
	if reg.LiveRuns() != 0 {
		t.Errorf("%d recorders still attached after the run", reg.LiveRuns())
	}
}

func obsLiveTestConfig() Config {
	cfg := QuickConfig()
	cfg.Seed = 7
	cfg.Duration = 2 * time.Hour
	return cfg
}

func TestLiveScrapeDuringSerialRun(t *testing.T) {
	scrapeDuringRun(t, obsLiveTestConfig())
}

// TestLiveScrapeSerialMatchesUninstrumented locks the zero-perturbation
// contract: attaching a registry and a span sink must not change a single
// byte of the report or the telemetry snapshot.
func TestLiveScrapeSerialMatchesUninstrumented(t *testing.T) {
	cfg := obsLiveTestConfig()
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry.Live = obs.NewRegistry()
	cfg.Telemetry.Spans = obs.NewFlightRecorder(0)
	instr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report() != instr.Report() {
		t.Error("instrumentation changed the report")
	}
	if plain.Telemetry != instr.Telemetry {
		t.Error("instrumentation changed the telemetry snapshot")
	}
}

// TestSweepCellSpans: ParallelSweep emits one labelled cell span per
// replication, marking store hits.
func TestSweepCellSpans(t *testing.T) {
	flight := obs.NewFlightRecorder(64)
	base := QuickConfig()
	base.Seed = 3
	base.Duration = time.Hour
	base.Telemetry.Spans = flight
	if _, err := ParallelSweep(base, Urban, SweepOptions{Workers: 2, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	spans := flight.Spans(0)
	want := len(GatewaySweep()) * len(Schemes())
	if len(spans) != want {
		t.Fatalf("recorded %d cell spans, want %d", len(spans), want)
	}
	labels := map[string]bool{}
	for _, sp := range spans {
		if sp.Name != "cell" {
			t.Errorf("unexpected span %q", sp.Name)
		}
		if sp.Attr != 0 {
			t.Errorf("storeless sweep marked span cached: %+v", sp)
		}
		if sp.SimNS != base.Duration.Nanoseconds() {
			t.Errorf("cell span sim clock = %d, want %d", sp.SimNS, base.Duration.Nanoseconds())
		}
		labels[sp.Label] = true
	}
	if len(labels) != want {
		t.Errorf("cell labels not unique: %d distinct of %d", len(labels), want)
	}
	if !labels["urban/ROBC/gw=10/rep=0"] {
		t.Errorf("missing expected label, got %v", labels)
	}
}

// The nil-sink fast path must not allocate: spans off means the sweep and
// engine hot paths stay allocation-identical to the pre-obs tree.
var _ telemetry.SpanSink = (*obs.FlightRecorder)(nil)
var _ telemetry.LiveAttacher = (*obs.Registry)(nil)
