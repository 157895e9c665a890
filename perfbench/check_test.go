package main

import (
	"strings"
	"testing"
	"time"

	"mlorass/internal/experiment"
	"mlorass/internal/routing"
	"mlorass/internal/runstore"
)

func TestResultInvariants(t *testing.T) {
	cfg := experiment.QuickConfig()
	cfg.Scheme = routing.SchemeROBC
	cfg.Duration = 2 * time.Hour
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultErr(res); err != nil {
		t.Fatalf("a real run breaks an invariant: %v", err)
	}
	if res.Delivered == 0 || res.HandoverAttempts == 0 {
		t.Fatalf("run too small to exercise the checks: %s", res)
	}
	corruptions := map[string]func(r *experiment.Result){
		"Delivered+1":       func(r *experiment.Result) { r.Delivered++ },
		"Generated+1":       func(r *experiment.Result) { r.Generated++ },
		"Duplicates+1":      func(r *experiment.Result) { r.Duplicates++ },
		"ServerFresh-1":     func(r *experiment.Result) { r.Telemetry.Counters.ServerFresh-- },
		"Transmissions+1":   func(r *experiment.Result) { r.Medium.Transmissions++ },
		"Successes>Attempt": func(r *experiment.Result) { r.HandoverSuccesses = r.HandoverAttempts + 1 },
		"Delivered>Generated": func(r *experiment.Result) {
			r.Generated = uint64(r.Delivered) - 1
			r.Telemetry.Counters.Generated = r.Generated
		},
	}
	for name, corrupt := range corruptions {
		bad := *res
		corrupt(&bad)
		c := newChecker()
		c.result(name, &bad)
		if c.attempted != 1 || c.failed != 1 || len(c.errs) != 1 {
			t.Errorf("%s: attempted %d failed %d errs %q; want the corrupted result counted as one failure",
				name, c.attempted, c.failed, c.errs)
		}
	}
}

func TestCheckerSame(t *testing.T) {
	c := newChecker()
	c.same("pass", "a")
	c.same("pass", "a")
	c.same("setup", "b")
	if c.failed != 0 || c.attempted != 3 {
		t.Fatalf("identical outputs: attempted %d failed %d", c.attempted, c.failed)
	}
	c.same("pass", "a'")
	if c.failed != 1 || c.attempted != 4 {
		t.Fatalf("changed output: attempted %d failed %d", c.attempted, c.failed)
	}
}

func TestSweepSummary(t *testing.T) {
	r := newSpanRecorder()
	r.spans = []span{
		{Name: "sweep", DurNS: int64(time.Second)},
		{Name: "cell", DurNS: int64(400 * time.Millisecond)},
		{Name: "cell", DurNS: int64(600 * time.Millisecond), Cached: true},
		{Name: "cell", DurNS: int64(500 * time.Millisecond)},
		{Name: "cell", DurNS: int64(300 * time.Millisecond)},
	}
	s := r.summary(2)
	near := func(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
	if s.cells != 4 || !near(s.p50, 0.45) || !near(s.max, 0.6) || !near(s.idle, 0.2) || !near(s.balance, 0.9) {
		t.Fatalf("summary %+v", s)
	}
}

// TestSweepSpans feeds the recorder from a real two-worker sweep, cold and
// then resumed from its store: every cell span carries its label and
// whether the store served it.
func TestSweepSpans(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := oneSlot(experiment.QuickConfig())
	cells := len(experiment.GatewaySweep()) * len(experiment.Schemes())
	for _, cached := range []bool{false, true} {
		r := newSpanRecorder()
		base.Telemetry.Spans = r
		err := r.around("sweep", "", func() error {
			_, err := experiment.ParallelSweep(base, experiment.Urban,
				experiment.SweepOptions{Workers: 2, Reps: 1, Store: st})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := r.summary(2); s.cells != cells || s.balance <= 0 || s.balance > 1 {
			t.Errorf("cached=%v: summary %+v, want %d cells", cached, s, cells)
		}
		for _, sp := range r.spans {
			if sp.Name == "cell" && (sp.Cached != cached || !strings.HasPrefix(sp.Label, "urban/")) {
				t.Errorf("cached=%v: cell span %+v", cached, sp)
			}
		}
	}
}
