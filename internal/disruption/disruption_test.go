package disruption

import (
	"math"
	"testing"
	"time"
)

func TestZeroConfigDisabled(t *testing.T) {
	var cfg Config
	if cfg.Enabled() {
		t.Fatal("zero config enabled")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(cfg, 1, 10, 100, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OutageWindows() != 0 || plan.DeviceFailures() != 0 {
		t.Fatalf("zero config scheduled %d outages, %d failures", plan.OutageWindows(), plan.DeviceFailures())
	}
	for gw := 0; gw < 10; gw++ {
		if !plan.GatewayUp(gw, 12*time.Hour) {
			t.Fatalf("gateway %d down without disruption", gw)
		}
	}
}

func TestCompileGatewayOutages(t *testing.T) {
	cfg := Config{GatewayOutageFraction: 0.5, OutageDuration: time.Hour}
	plan, err := Compile(cfg, 42, 10, 0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.OutageWindows(); got != 5 {
		t.Fatalf("outage windows %d, want 5 (50%% of 10)", got)
	}
	for gw, ws := range plan.GatewayOutages {
		for _, w := range ws {
			if w.End-w.Start != time.Hour {
				t.Fatalf("gateway %d window %v long", gw, w.End-w.Start)
			}
			if w.Start < 0 || w.End > 24*time.Hour {
				t.Fatalf("gateway %d window [%v, %v) outside horizon", gw, w.Start, w.End)
			}
			if plan.GatewayUp(gw, w.Start) || plan.GatewayUp(gw, w.End-time.Second) {
				t.Fatalf("gateway %d up inside its own outage", gw)
			}
			if !plan.GatewayUp(gw, w.End) {
				t.Fatalf("gateway %d still down after recovery", gw)
			}
		}
	}
}

func TestCompileDefaultsOutageDurationToQuarterHorizon(t *testing.T) {
	cfg := Config{GatewayOutageFraction: 1}
	plan, err := Compile(cfg, 1, 4, 0, 8*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range plan.GatewayOutages {
		for _, w := range ws {
			if w.End-w.Start != 2*time.Hour {
				t.Fatalf("default outage %v, want horizon/4 = 2h", w.End-w.Start)
			}
		}
	}
}

func TestCompileDeviceChurn(t *testing.T) {
	cfg := Config{DeviceChurnFraction: 0.25}
	plan, err := Compile(cfg, 7, 0, 80, 10*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.DeviceFailures(); got != 20 {
		t.Fatalf("device failures %d, want 20 (25%% of 80)", got)
	}
	for dev, at := range plan.DeviceFailAt {
		if at < 0 {
			if !plan.DeviceAlive(dev, 10*time.Hour) {
				t.Fatalf("unchurned device %d died", dev)
			}
			continue
		}
		if at >= 10*time.Hour {
			t.Fatalf("device %d fails at %v, beyond horizon", dev, at)
		}
		if plan.DeviceAlive(dev, at) || !plan.DeviceAlive(dev, at-time.Second) {
			t.Fatalf("device %d alive/dead boundary wrong around %v", dev, at)
		}
	}
}

func TestCompileDeterminism(t *testing.T) {
	cfg := Config{GatewayOutageFraction: 0.7, DeviceChurnFraction: 0.3}
	a, err := Compile(cfg, 5, 20, 50, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(cfg, 5, 20, 50, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for gw := range a.GatewayOutages {
		if len(a.GatewayOutages[gw]) != len(b.GatewayOutages[gw]) {
			t.Fatalf("gateway %d window counts differ", gw)
		}
		for i := range a.GatewayOutages[gw] {
			if a.GatewayOutages[gw][i] != b.GatewayOutages[gw][i] {
				t.Fatalf("gateway %d window %d differs", gw, i)
			}
		}
	}
	for dev := range a.DeviceFailAt {
		if a.DeviceFailAt[dev] != b.DeviceFailAt[dev] {
			t.Fatalf("device %d failure instant differs", dev)
		}
	}
	// A different seed picks different victims or instants.
	c, err := Compile(cfg, 6, 20, 50, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for dev := range a.DeviceFailAt {
		if a.DeviceFailAt[dev] != c.DeviceFailAt[dev] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds compiled identical churn plans")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{GatewayOutageFraction: -0.1},
		{GatewayOutageFraction: 1.1},
		{DeviceChurnFraction: 2},
		{GatewayOutageFraction: math.NaN()},
		{DeviceChurnFraction: math.NaN()},
		{OutageDuration: -time.Hour},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestOutageDurationClampedToHorizon(t *testing.T) {
	cfg := Config{GatewayOutageFraction: 1, OutageDuration: 48 * time.Hour}
	plan, err := Compile(cfg, 1, 3, 0, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range plan.GatewayOutages {
		for _, w := range ws {
			if w.Start != 0 || w.End != 6*time.Hour {
				t.Fatalf("clamped window [%v, %v), want full horizon", w.Start, w.End)
			}
		}
	}
}
