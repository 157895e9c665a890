package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlorass/internal/gwplan"
	"mlorass/internal/lorawan"
	"mlorass/internal/routing"
)

// tinyConfig is a fast scenario for unit tests: a 2-hour horizon over a
// small dense town so every code path (contacts, disconnections, handovers,
// retries, collisions) is exercised in well under a second.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.AreaSideM = 5000
	cfg.NumRoutes = 8
	cfg.PeakHeadway = 15 * time.Minute
	cfg.NumGateways = 3
	cfg.Duration = 2 * time.Hour
	return cfg
}

func runTiny(t *testing.T, mut func(*Config)) *Result {
	t.Helper()
	cfg := tinyConfig()
	if mut != nil {
		mut(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res := runTiny(t, func(c *Config) { c.Scheme = scheme })
			if res.Generated == 0 {
				t.Fatal("no messages generated")
			}
			if res.Delivered == 0 {
				t.Fatal("no messages delivered")
			}
			if uint64(res.Delivered) > res.Generated {
				t.Fatalf("delivered %d > generated %d", res.Delivered, res.Generated)
			}
			if res.ActiveDevices == 0 {
				t.Fatal("no active devices")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	b := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	if a.Delivered != b.Delivered || a.Generated != b.Generated {
		t.Fatalf("same seed differs: %d/%d vs %d/%d", a.Delivered, a.Generated, b.Delivered, b.Generated)
	}
	if a.Delay.Mean() != b.Delay.Mean() {
		t.Fatalf("delay means differ: %v vs %v", a.Delay.Mean(), b.Delay.Mean())
	}
	if a.Medium.Transmissions != b.Medium.Transmissions {
		t.Fatalf("transmission counts differ")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := runTiny(t, nil)
	b := runTiny(t, func(c *Config) { c.Seed = 2 })
	if a.Generated == b.Generated && a.Delivered == b.Delivered &&
		a.Delay.Mean() == b.Delay.Mean() {
		t.Fatal("different seeds produced identical results")
	}
}

func TestNoRoutingHopsAlwaysOne(t *testing.T) {
	res := runTiny(t, nil) // default scheme is NoRouting
	if res.Hops.Min() != 1 || res.Hops.Max() != 1 {
		t.Fatalf("NoRouting hops [%v, %v], want exactly 1 (Fig. 12)", res.Hops.Min(), res.Hops.Max())
	}
	if res.HandoverAttempts != 0 {
		t.Fatalf("NoRouting attempted %d handovers", res.HandoverAttempts)
	}
}

func TestForwardingSchemesProduceHandovers(t *testing.T) {
	for _, scheme := range []routing.Scheme{routing.SchemeRCAETX, routing.SchemeROBC} {
		res := runTiny(t, func(c *Config) { c.Scheme = scheme })
		if res.HandoverAttempts == 0 {
			t.Errorf("%v made no handover attempts in a dense scenario", scheme)
		}
		if res.Hops.Max() < 2 && res.HandoverSuccesses > 0 {
			t.Errorf("%v moved messages but max hops = %v", scheme, res.Hops.Max())
		}
	}
}

func TestDelayNonNegativeAndConsistent(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	if res.Delay.Min() < 0 {
		t.Fatalf("negative delay %v", res.Delay.Min())
	}
	if res.Delay.N() != uint64(res.Delivered) {
		t.Fatalf("delay samples %d != delivered %d", res.Delay.N(), res.Delivered)
	}
	if res.DirectDelay.N()+res.RelayedDelay.N() != res.Delay.N() {
		t.Fatal("direct + relayed does not partition deliveries")
	}
}

func TestThroughputSeriesSumsToDelivered(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	if got := res.Throughput.Total(); got != res.Delivered {
		t.Fatalf("throughput series total %d != delivered %d", got, res.Delivered)
	}
}

func TestValidationRejectsBadConfigs(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad scheme", func(c *Config) { c.Scheme = 99 }},
		{"bad class", func(c *Config) { c.Class = 99 }},
		{"forwarding without overhearing class", func(c *Config) {
			c.Scheme = routing.SchemeROBC
			c.Class = lorawan.ClassA
		}},
		{"interval >= duration", func(c *Config) { c.MsgInterval = c.Duration }},
		{"bad strategy", func(c *Config) { c.GatewayStrategy = 99 }},
		{"negative alpha normalizes but 2 rejected", func(c *Config) { c.Alpha = 2 }},
		{"bad SF", func(c *Config) { c.SF = 42 }},
		{"duty > 1", func(c *Config) { c.DutyCycle = 1.5 }},
	}
	for _, tt := range muts {
		cfg := tinyConfig()
		tt.mut(&cfg)
		cfg.Normalize()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

// TestValidationRejectsNonFinite sets every float knob of Config, one at a
// time, to NaN and ±Inf: Validate must name the field, so Run fails cleanly
// instead of panicking, hanging, or reporting a silently empty run. The
// field list is checked against the struct, so a new float knob cannot
// slip past the table.
func TestValidationRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config, float64){
		"D2DRangeM":                        func(c *Config, v float64) { c.D2DRangeM = v },
		"GatewayRangeM":                    func(c *Config, v float64) { c.GatewayRangeM = v },
		"AreaSideM":                        func(c *Config, v float64) { c.AreaSideM = v },
		"Alpha":                            func(c *Config, v float64) { c.Alpha = v },
		"TxPowerDBm":                       func(c *Config, v float64) { c.TxPowerDBm = v },
		"DutyCycle":                        func(c *Config, v float64) { c.DutyCycle = v },
		"ShadowSigmaDB":                    func(c *Config, v float64) { c.ShadowSigmaDB = v },
		"CaptureDB":                        func(c *Config, v float64) { c.CaptureDB = v },
		"Mobility.SpeedMinMPS":             func(c *Config, v float64) { c.Mobility.Model = MobilityRandomWaypoint; c.Mobility.SpeedMinMPS = v },
		"Mobility.SpeedMaxMPS":             func(c *Config, v float64) { c.Mobility.Model = MobilityRandomWaypoint; c.Mobility.SpeedMaxMPS = v },
		"Disruption.GatewayOutageFraction": func(c *Config, v float64) { c.Disruption.GatewayOutageFraction = v },
		"Disruption.DeviceChurnFraction":   func(c *Config, v float64) { c.Disruption.DeviceChurnFraction = v },
		"MAC.ADRMarginDB":                  func(c *Config, v float64) { c.MAC.ADR = true; c.MAC.ADRMarginDB = v },
		"MAC.DownlinkDutyCycle":            func(c *Config, v float64) { c.MAC.ADR = true; c.MAC.DownlinkDutyCycle = v },
		"MAC.DownlinkTxPowerDBm":           func(c *Config, v float64) { c.MAC.ADR = true; c.MAC.DownlinkTxPowerDBm = v },
	}
	var walk func(prefix string, typ reflect.Type) []string
	walk = func(prefix string, typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Float32, reflect.Float64:
				names = append(names, prefix+f.Name)
			case reflect.Struct:
				names = append(names, walk(prefix+f.Name+".", f.Type)...)
			}
		}
		return names
	}
	for _, name := range walk("", reflect.TypeOf(Config{})) {
		if fields[name] == nil {
			t.Errorf("float field %s missing from the table", name)
		}
	}

	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := tinyConfig()
			set(&cfg, v)
			cfg.Normalize()
			err := cfg.Validate()
			if err == nil {
				t.Errorf("%s = %v accepted", name, v)
				continue
			}
			if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "finite") {
				t.Errorf("%s = %v: error %q does not name the field as non-finite", name, v, err)
			}
		}
	}

	// Finite values of the same knobs are unaffected.
	for _, mut := range []func(*Config){
		func(c *Config) { c.Mobility.Model = MobilityRandomWaypoint },
		func(c *Config) { c.MAC.ADR = true; c.MAC.Confirmed = true },
		func(c *Config) { c.Disruption.GatewayOutageFraction = 0.5; c.Disruption.DeviceChurnFraction = 0.1 },
	} {
		cfg := tinyConfig()
		mut(&cfg)
		cfg.Normalize()
		if err := cfg.Validate(); err != nil {
			t.Errorf("finite config rejected: %v", err)
		}
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	var cfg Config
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("normalized zero config invalid: %v", err)
	}
	def := DefaultConfig()
	if cfg.Scheme != def.Scheme || cfg.MsgInterval != def.MsgInterval || cfg.Alpha != def.Alpha {
		t.Fatal("defaults not applied")
	}
	if cfg.D2DRangeM != Urban.D2DRangeM() {
		t.Fatalf("D2D range = %v, want urban default", cfg.D2DRangeM)
	}
}

func TestEnvironmentRanges(t *testing.T) {
	if Urban.D2DRangeM() != 500 || Rural.D2DRangeM() != 1000 {
		t.Fatal("environment d2d ranges wrong (Sec. VII-A6)")
	}
	if Urban.String() != "urban" || Rural.String() != "rural" {
		t.Fatal("environment names wrong")
	}
}

func TestRuralReachesFartherNeighbours(t *testing.T) {
	urban := runTiny(t, func(c *Config) {
		c.Scheme = routing.SchemeROBC
		c.Environment = Urban
	})
	rural := runTiny(t, func(c *Config) {
		c.Scheme = routing.SchemeROBC
		c.Environment = Rural
		c.D2DRangeM = 0
	})
	// With double the d2d range, rural sees at least as many handover
	// opportunities.
	if rural.HandoverAttempts < urban.HandoverAttempts {
		t.Fatalf("rural handover attempts %d < urban %d", rural.HandoverAttempts, urban.HandoverAttempts)
	}
}

func TestQueueClassAUsesLessRadio(t *testing.T) {
	modC := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	queueA := runTiny(t, func(c *Config) {
		c.Scheme = routing.SchemeROBC
		c.Class = lorawan.ClassQueueA
	})
	if queueA.RadioOnPerNode.Mean() >= modC.RadioOnPerNode.Mean() {
		t.Fatalf("Queue-based Class-A radio-on %.0fs not below Modified-C %.0fs (Sec. VII-C)",
			queueA.RadioOnPerNode.Mean(), modC.RadioOnPerNode.Mean())
	}
}

func TestRandomPlacementRuns(t *testing.T) {
	res := runTiny(t, func(c *Config) {
		c.GatewayStrategy = gwplan.Random
		c.Scheme = routing.SchemeROBC
	})
	if res.Delivered == 0 {
		t.Fatal("random placement delivered nothing")
	}
}

func TestCustomDataset(t *testing.T) {
	ds := lineDataset()
	res := runTiny(t, func(c *Config) {
		c.Dataset = ds
		c.NumGateways = 1
	})
	if res.ActiveDevices != len(ds.Trips) {
		t.Fatalf("active devices %d != trips %d", res.ActiveDevices, len(ds.Trips))
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries on the line dataset")
	}
}

func TestGatewayCountMonotonicity(t *testing.T) {
	// More gateways must not reduce NoRouting delivery substantially:
	// coverage only grows. Allow a small tolerance for collision noise.
	few := runTiny(t, func(c *Config) { c.NumGateways = 2 })
	many := runTiny(t, func(c *Config) { c.NumGateways = 12 })
	if float64(many.Delivered) < 0.9*float64(few.Delivered) {
		t.Fatalf("delivery dropped from %d to %d when adding gateways", few.Delivered, many.Delivered)
	}
}

func TestSweepHelpers(t *testing.T) {
	gws := GatewaySweep()
	if len(gws) < 5 {
		t.Fatalf("gateway sweep too small: %v", gws)
	}
	for i := 1; i < len(gws); i++ {
		if gws[i] <= gws[i-1] {
			t.Fatalf("gateway sweep not increasing: %v", gws)
		}
	}
	if PaperEquivalentGateways(gws[0]) != gws[0]*4 {
		t.Fatal("paper-equivalent scaling wrong")
	}
}

func TestFig7Data(t *testing.T) {
	active, hist, err := Fig7Data(1, 10, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 24 {
		t.Fatalf("active bins = %d", len(active))
	}
	if hist.N() == 0 {
		t.Fatal("empty duration histogram")
	}
}

func TestTablesRender(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = time.Hour
	var points []AggregatePoint
	for _, scheme := range Schemes() {
		c := cfg
		c.Scheme = scheme
		c.NumGateways = 3
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, AggregatePoint{Environment: Urban, Scheme: scheme, Gateways: 10,
			Seeds: []uint64{c.Seed}, Reps: []*Result{res}, Agg: AggregateResults([]*Result{res})})
	}
	for _, table := range []string{
		Fig8AggTable(points), Fig8MatchedTable(points), Fig9AggTable(points),
		Fig12AggTable(points), Fig13AggTable(points),
	} {
		// All three scheme columns and the one gateway row must appear.
		for _, want := range []string{Schemes()[0].String(), Schemes()[1].String(), Schemes()[2].String(), " 10 ( 40)"} {
			if !containsStr(table, want) {
				t.Fatalf("table missing %q:\n%s", want, table)
			}
		}
	}
}

func TestReportRenders(t *testing.T) {
	res := runTiny(t, func(c *Config) { c.Scheme = routing.SchemeROBC })
	rep := res.Report()
	for _, want := range []string{"delivered", "delay", "hops", "handovers"} {
		if !containsStr(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if res.String() == "" {
		t.Fatal("empty one-line summary")
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(haystack, needle string) int {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

func TestRouteAwarePlacementEndToEnd(t *testing.T) {
	grid := runTiny(t, nil)
	aware := runTiny(t, func(c *Config) { c.GatewayStrategy = gwplan.RouteAware })
	if aware.Delivered == 0 {
		t.Fatal("route-aware placement delivered nothing")
	}
	// Gateways on the routes must not hurt delivery relative to a blind
	// grid in the same world.
	if float64(aware.Delivered) < 0.9*float64(grid.Delivered) {
		t.Fatalf("route-aware delivery %d well below grid %d", aware.Delivered, grid.Delivered)
	}
}
