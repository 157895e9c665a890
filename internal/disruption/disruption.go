// Package disruption schedules infrastructure failure into a simulation run:
// gateway outage/recovery windows and permanent mid-run device churn.
//
// The paper evaluates RCA-ETX and ROBC with permanently healthy gateways and
// a fixed device population; this package opens the resilience axis. A
// Config describes how much of the infrastructure fails; Compile expands it
// deterministically (from the run seed) into a concrete Plan of per-gateway
// outage windows and per-device failure instants, which the experiment
// harness turns into events on the eventsim timeline. Same seed, same plan —
// disruption runs stay bit-for-bit reproducible.
package disruption

import (
	"fmt"
	"time"

	"mlorass/internal/rng"
)

// Config parameterises scheduled infrastructure failure. The zero value
// disables disruption entirely, preserving the paper's permanently healthy
// world.
type Config struct {
	// GatewayOutageFraction in [0, 1] is the fraction of gateways that
	// suffer one outage window during the run.
	GatewayOutageFraction float64
	// OutageDuration is each affected gateway's downtime. Zero defaults
	// to a quarter of the horizon at Compile time; durations are clamped
	// to the horizon.
	OutageDuration time.Duration
	// DeviceChurnFraction in [0, 1] is the fraction of devices that fail
	// permanently at a uniform random instant mid-run.
	DeviceChurnFraction float64
}

// Enabled reports whether the configuration schedules any disruption.
func (c Config) Enabled() bool {
	return c.GatewayOutageFraction > 0 || c.DeviceChurnFraction > 0
}

// Validate reports configuration errors. The fraction checks are written
// so that NaN fails them too.
func (c Config) Validate() error {
	if !(c.GatewayOutageFraction >= 0 && c.GatewayOutageFraction <= 1) {
		return fmt.Errorf("disruption: GatewayOutageFraction %v outside [0, 1]", c.GatewayOutageFraction)
	}
	if !(c.DeviceChurnFraction >= 0 && c.DeviceChurnFraction <= 1) {
		return fmt.Errorf("disruption: DeviceChurnFraction %v outside [0, 1]", c.DeviceChurnFraction)
	}
	if c.OutageDuration < 0 {
		return fmt.Errorf("disruption: OutageDuration %v negative", c.OutageDuration)
	}
	return nil
}

// Window is one [Start, End) downtime interval.
type Window struct {
	Start time.Duration
	End   time.Duration
}

// Contains reports whether the instant falls inside the window.
func (w Window) Contains(at time.Duration) bool { return at >= w.Start && at < w.End }

// Plan is a compiled disruption schedule for one concrete run.
type Plan struct {
	// GatewayOutages holds each gateway's outage windows (usually zero or
	// one), indexed by gateway.
	GatewayOutages [][]Window
	// DeviceFailAt holds each device's permanent failure instant, indexed
	// by device; a negative value means the device never fails.
	DeviceFailAt []time.Duration
}

// Compile expands a Config into a concrete Plan for gateways×devices over
// the horizon. Victims are drawn by a seeded permutation and failure times
// uniformly, so the plan is a pure function of its arguments.
func Compile(cfg Config, seed uint64, gateways, devices int, horizon time.Duration) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gateways < 0 || devices < 0 {
		return nil, fmt.Errorf("disruption: negative population %d gateways / %d devices", gateways, devices)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("disruption: horizon %v must be positive", horizon)
	}
	p := &Plan{
		GatewayOutages: make([][]Window, gateways),
		DeviceFailAt:   make([]time.Duration, devices),
	}
	for i := range p.DeviceFailAt {
		p.DeviceFailAt[i] = -1
	}

	r := rng.New(seed)
	gwRNG := r.Split()
	devRNG := r.Split()

	if cfg.GatewayOutageFraction > 0 && gateways > 0 {
		dur := cfg.OutageDuration
		if dur == 0 {
			dur = horizon / 4
		}
		if dur > horizon {
			dur = horizon
		}
		nDown := victims(cfg.GatewayOutageFraction, gateways)
		perm := gwRNG.Perm(gateways)
		for _, gw := range perm[:nDown] {
			start := time.Duration(gwRNG.Uniform(0, (horizon-dur).Seconds()+1) * float64(time.Second))
			if start+dur > horizon {
				start = horizon - dur
			}
			p.GatewayOutages[gw] = append(p.GatewayOutages[gw], Window{Start: start, End: start + dur})
		}
	}

	if cfg.DeviceChurnFraction > 0 && devices > 0 {
		nFail := victims(cfg.DeviceChurnFraction, devices)
		perm := devRNG.Perm(devices)
		for _, dev := range perm[:nFail] {
			p.DeviceFailAt[dev] = time.Duration(devRNG.Uniform(0, horizon.Seconds()) * float64(time.Second))
		}
	}
	return p, nil
}

// victims rounds fraction×n to the nearest count, clamped to [0, n].
func victims(fraction float64, n int) int {
	v := int(fraction*float64(n) + 0.5)
	if v > n {
		v = n
	}
	if v < 0 {
		v = 0
	}
	return v
}

// GatewayUp reports whether the gateway is outside all its outage windows.
func (p *Plan) GatewayUp(gw int, at time.Duration) bool {
	if gw < 0 || gw >= len(p.GatewayOutages) {
		return true
	}
	for _, w := range p.GatewayOutages[gw] {
		if w.Contains(at) {
			return false
		}
	}
	return true
}

// DeviceAlive reports whether the device has not yet hit its failure instant.
func (p *Plan) DeviceAlive(dev int, at time.Duration) bool {
	if dev < 0 || dev >= len(p.DeviceFailAt) {
		return true
	}
	f := p.DeviceFailAt[dev]
	return f < 0 || at < f
}

// OutageWindows counts scheduled gateway outage windows.
func (p *Plan) OutageWindows() int {
	n := 0
	for _, ws := range p.GatewayOutages {
		n += len(ws)
	}
	return n
}

// DeviceFailures counts devices scheduled to fail.
func (p *Plan) DeviceFailures() int {
	n := 0
	for _, f := range p.DeviceFailAt {
		if f >= 0 {
			n++
		}
	}
	return n
}
