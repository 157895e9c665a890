package experiment

import (
	"testing"
	"time"
)

// TestRunAllocInvariant extends the hot-path allocation discipline from the
// kernel and recorder micro-benchmarks to whole runs: doubling the simulated
// horizon must not add allocations per frame. Set-up (fleet, gateways,
// devices, closures) costs the same at both horizons, and steady state only
// grows amortised buffers, so the extra allocations divided by the extra
// frames on air stay near zero; one allocation per transmission (a closure,
// a boxed event, a fresh frame) gives at least 1 and trips the bound.
func TestRunAllocInvariant(t *testing.T) {
	macs := []struct {
		name string
		mac  MACConfig
	}{
		{"mac-off", MACConfig{}},
		{"adr-confirmed", MACConfig{ADR: true, Confirmed: true}},
	}
	for _, scheme := range Schemes() {
		for _, m := range macs {
			t.Run(scheme.String()+"/"+m.name, func(t *testing.T) {
				measure := func(d time.Duration) (allocs float64, frames uint64) {
					cfg := QuickConfig()
					cfg.Scheme = scheme
					cfg.MAC = m.mac
					cfg.Duration = d
					allocs = testing.AllocsPerRun(1, func() {
						res, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						frames = res.Telemetry.Counters.FramesOnAir
					})
					return allocs, frames
				}
				a1, f1 := measure(30 * time.Minute)
				a2, f2 := measure(time.Hour)
				if f2 <= f1 {
					t.Fatalf("frame counts did not grow: %d vs %d", f1, f2)
				}
				perFrame := (a2 - a1) / float64(f2-f1)
				t.Logf("%+.0f allocs over %+d frames (%.3f/frame)", a2-a1, f2-f1, perFrame)
				if perFrame > 0.1 {
					t.Errorf("run allocates per frame: %.3f allocs/frame over %d extra frames (%.0f → %.0f allocs)",
						perFrame, f2-f1, a1, a2)
				}
			})
		}
	}
}
