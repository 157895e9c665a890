package experiment

import (
	"fmt"
	"strings"

	"mlorass/internal/radio"
)

// ADRMode is one column of the ADR sweep: a MAC configuration applied on
// top of the base scenario.
type ADRMode int

// ADR sweep modes, in figure order.
const (
	// ADRModeFixed is the paper's baseline: fixed SF, instant acks
	// (Config.MAC zero-valued).
	ADRModeFixed ADRMode = iota + 1
	// ADRModeADR enables the network-server ADR loop over unconfirmed
	// traffic.
	ADRModeADR
	// ADRModeConfirmed enables ADR plus confirmed uplinks with downlink
	// acks and retransmission backoff.
	ADRModeConfirmed
)

// String names the mode as a table column header.
func (m ADRMode) String() string {
	switch m {
	case ADRModeFixed:
		return "fixed-SF"
	case ADRModeADR:
		return "ADR"
	case ADRModeConfirmed:
		return "ADR+confirmed"
	default:
		return fmt.Sprintf("ADRMode(%d)", int(m))
	}
}

// apply returns the MACConfig this mode runs under. The adaptive modes join
// devices at SF12 — the robust rate a real LoRaWAN device starts from — so
// the sweep measures how far the ADR loop climbs back toward the paper's
// fixed-SF7 operating point under mobility.
func (m ADRMode) apply() MACConfig {
	switch m {
	case ADRModeADR:
		return MACConfig{ADR: true, InitialSF: radio.SF12}
	case ADRModeConfirmed:
		return MACConfig{ADR: true, Confirmed: true, InitialSF: radio.SF12}
	default:
		return MACConfig{}
	}
}

// ADRModes lists the sweep's MAC configurations in column order.
func ADRModes() []ADRMode { return []ADRMode{ADRModeFixed, ADRModeADR, ADRModeConfirmed} }

// ADRPoint is one (mode, gateway-count) cell of the ADR sweep.
type ADRPoint struct {
	Environment Environment
	Mode        ADRMode
	Gateways    int
	Result      *Result
}

// ADRSweep runs the adaptive-data-rate figure: every MAC mode × gateway
// count for the given environment on the sweep executor (worker pool, run
// store, cell spans and progress as in opts). The table renders one
// replication per cell, so opts.Reps > 1 fails with ErrSingleRep. The paper
// fixes SF7 because "ADR degrades under mobility" — this sweep measures
// exactly that claim in the reproduction, plus what confirmed traffic's
// downlink load costs on the shared channel.
func ADRSweep(base Config, env Environment, opts SweepOptions) ([]ADRPoint, error) {
	if opts.Reps > 1 {
		return nil, fmt.Errorf("adr sweep with Reps %d: %w", opts.Reps, ErrSingleRep)
	}
	var (
		points []ADRPoint
		jobs   []sweepJob
	)
	for _, gw := range GatewaySweep() {
		for _, mode := range ADRModes() {
			cfg := base
			cfg.Environment = env
			cfg.D2DRangeM = 0 // re-derive from environment
			cfg.NumGateways = gw
			cfg.MAC = mode.apply()
			jobs = append(jobs, sweepJob{cell: len(points), cfg: cfg,
				label: fmt.Sprintf("%v/%v/gw=%d", env, mode, gw)})
			points = append(points, ADRPoint{Environment: env, Mode: mode, Gateways: gw})
		}
	}
	if err := runSweep(jobs, opts, func(j sweepJob, res *Result) {
		points[j.cell].Result = res
	}); err != nil {
		return nil, fmt.Errorf("adr %w", err)
	}
	return points, nil
}

// ADRTable renders the ADR sweep: delivery ratio, mean uplink SF, and the
// confirmed-path costs (retransmissions, downlink budget drops) per mode as
// gateway density grows. Each cell reads "deliv% @ meanSF"; the confirmed
// column appends "retx" counts so the downlink tax is visible in the same
// artefact.
func ADRTable(points []ADRPoint) string {
	type key struct {
		gw   int
		mode ADRMode
	}
	byKey := map[key]*Result{}
	gwSet := map[int]bool{}
	var env Environment
	for _, p := range points {
		byKey[key{p.Gateways, p.Mode}] = p.Result
		gwSet[p.Gateways] = true
		env = p.Environment
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ADR: delivery %%, mean uplink SF, and retransmissions vs gateway density — %s environment\n", env)
	fmt.Fprintf(&b, "%-18s", "gateways (paper)")
	for _, m := range ADRModes() {
		fmt.Fprintf(&b, " | %22s", m)
	}
	b.WriteByte('\n')
	for _, g := range GatewaySweep() {
		if !gwSet[g] {
			continue
		}
		fmt.Fprintf(&b, "%3d (%3d)         ", g, PaperEquivalentGateways(g))
		for _, m := range ADRModes() {
			r := byKey[key{g, m}]
			if r == nil {
				fmt.Fprintf(&b, " | %22s", "-")
				continue
			}
			sf := "  n/a" // SF distribution unavailable: telemetry off
			if r.Telemetry.SF.Total() > 0 {
				sf = fmt.Sprintf("%5.2f", r.Telemetry.SF.MeanSF())
			}
			cell := fmt.Sprintf("%5.1f%% @SF%s", 100*r.DeliveryRatio(), sf)
			if m == ADRModeConfirmed {
				cell = fmt.Sprintf("%s %4d retx", cell, r.Retransmissions)
			}
			fmt.Fprintf(&b, " | %22s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
