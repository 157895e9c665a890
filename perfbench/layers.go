package main

import (
	"path"
	"strings"
)

// layers lists the simulator's layers in report order. Self time of a
// profile sample goes to the innermost frame that belongs to one of them.
var layers = []string{
	"eventsim", "mobility", "grid", "overhear", "estimator", "sim", "radio", "lorawan",
	"netserver", "mac", "telemetry", "store", "sweep", "runtime",
}

const (
	// repoModule prefixes every function of the simulator.
	repoModule = "mlorass"
	// unattributed collects samples whose innermost repository frame maps
	// to no layer: a package the layer map does not know yet.
	unattributed = "unattributed"
	// maxUnattributed is the share of samples above which the traced pass
	// is flagged as missing a layer.
	maxUnattributed = 0.15
)

// pkgLayers maps whole packages on the measured paths to layers. The
// experiment package is split by file and function in experimentLayer.
var pkgLayers = map[string]string{
	"mlorass/internal/eventsim":   "eventsim",
	"mlorass/internal/mobility":   "mobility",
	"mlorass/internal/tfl":        "mobility",
	"mlorass/internal/routing":    "overhear",
	"mlorass/internal/core":       "overhear",
	"mlorass/internal/radio":      "radio",
	"mlorass/internal/lorawan":    "lorawan",
	"mlorass/internal/netserver":  "netserver",
	"mlorass/internal/mac":        "mac",
	"mlorass/internal/telemetry":  "telemetry",
	"mlorass/internal/runstore":   "store",
	"mlorass/internal/gwplan":     "sim",
	"mlorass/internal/disruption": "sim",
}

// utilityPkgs are helpers every layer calls; their samples pass to the
// calling frame, like those of the standard library and the runtime.
var utilityPkgs = map[string]bool{
	"mlorass/internal/rng":   true,
	"mlorass/internal/geo":   true,
	"mlorass/internal/stats": true,
}

// frameLayer classifies one frame: its layer, or "" with repo reporting
// whether the frame is simulator code that belongs to no layer.
func frameLayer(f frame) (layer string, repo bool) {
	pkg := funcPackage(f.fn)
	if pkg != repoModule && !strings.HasPrefix(pkg, repoModule+"/") {
		return "", false
	}
	if utilityPkgs[pkg] {
		return "", false
	}
	file := path.Base(f.file)
	switch {
	case pkg == "mlorass/internal/experiment":
		return experimentLayer(file, funcName(f.fn, pkg)), true
	case pkg == "mlorass/internal/core" && file == "rcaetx.go":
		// The per-device RCA-ETX estimator: every scheme, NoRouting
		// included, updates it on each tick and advertises it in each
		// frame, so it is kept apart from the forwarding decisions.
		return "estimator", true
	case pkg == "mlorass/internal/netserver" && file == "mac.go",
		pkg == "mlorass/internal/lorawan" && file == "adr.go":
		return "mac", true
	}
	return pkgLayers[pkg], true
}

// experimentLayer splits the experiment package: the spatial index is the
// grid, the MAC glue is mac, the store adapter is store, the executors are
// sweep, the overhear and handover functions are overhear, devPos is
// mobility, and the rest (set-up, device lifecycle, result collection) is
// sim.
func experimentLayer(file, fn string) string {
	switch file {
	case "spatial.go":
		return "grid"
	case "sim_mac.go":
		return "mac"
	case "store.go":
		return "store"
	case "parallel.go", "farm.go":
		return "sweep"
	}
	switch fn {
	case "overhear", "resolveHandover", "banSendBack", "bannedSendBack", "listening", "stillInRange":
		return "overhear"
	case "devPos":
		return "mobility"
	}
	return "sim"
}

// funcPackage returns the import path of a qualified function name such as
// "mlorass/internal/experiment.(*sim).overhear.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// funcName returns the function or method name within pkg, without the
// receiver and closure suffixes: "overhear" for the example above.
func funcName(fn, pkg string) string {
	rest := strings.TrimPrefix(fn, pkg+".")
	if strings.HasPrefix(rest, "(") {
		if i := strings.Index(rest, ")."); i >= 0 {
			rest = rest[i+2:]
		}
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// stackLayer attributes one sample: the innermost frame with a layer wins;
// the standard library, the runtime and utility packages pass the sample to
// their caller; an unmapped repository frame stops the walk as
// unattributed; a stack with no repository frame is the runtime's.
func stackLayer(frames []frame) string {
	for _, f := range frames {
		layer, repo := frameLayer(f)
		if layer != "" {
			return layer
		}
		if repo {
			return unattributed
		}
	}
	return "runtime"
}

// attribution is a profile's CPU time per layer.
type attribution struct {
	self    map[string]float64 // seconds, by layer and unattributed
	total   float64
	samples int64
}

func attribute(stacks []stack) attribution {
	a := attribution{self: map[string]float64{}}
	for _, s := range stacks {
		sec := float64(s.nanos) / 1e9
		a.self[stackLayer(s.frames)] += sec
		a.total += sec
		a.samples += s.count
	}
	return a
}

// unattributedShare is the share of profiled time no layer claimed.
func (a attribution) unattributedShare() float64 {
	return ratio(a.self[unattributed], a.total)
}

// layerMetrics assembles the per-layer metrics of one traced pass.
// overhead is the traced pass's wall time over the untraced median.
func layerMetrics(tr tracedRun, a attribution, sw sweepSummary, rt rtStats, overhead float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, l := range layers {
		put(l+".self_s", a.self[l], "s")
	}
	put("profile.unattributed_share", a.unattributedShare(), "ratio")
	put("profile.samples", float64(a.samples), "count")

	t := tr.tally
	events := float64(tr.kernelEvents)
	put("eventsim.events", events, "count")
	put("eventsim.ns_per_event", ratio(a.self["eventsim"]*1e9, events), "ns")

	put("overhear.handover_attempts", float64(t.HandoverAttempts), "count")
	put("overhear.handover_success_ratio", ratio(float64(t.HandoverSuccesses), float64(t.HandoverAttempts)), "ratio")
	put("overhear.relay_hops", float64(t.RelayHops), "count")
	put("overhear.handover_lost_msgs", float64(t.HandoverLostMsgs), "count")

	put("radio.transmissions", float64(t.Transmissions), "count")
	put("radio.receptions", float64(t.Receptions), "count")
	put("radio.collisions", float64(t.Collisions), "count")

	put("lorawan.frames", float64(t.Frames), "count")
	put("lorawan.queue_drops", float64(t.QueueDrops), "count")

	ingests := float64(t.Delivered + t.Duplicates)
	put("netserver.ingests", ingests, "count")
	put("netserver.dup_ratio", ratio(float64(t.Duplicates), ingests), "ratio")

	put("mac.downlinks", float64(t.Downlinks), "count")
	put("mac.downlink_drops", float64(t.DownlinkDrops), "count")
	put("mac.ack_timeouts", float64(t.AckTimeouts), "count")
	put("mac.retransmissions", float64(t.Retransmissions), "count")
	put("mac.adr_commands", float64(t.ADRCmds), "count")

	put("telemetry.trace_events", float64(tr.traceEvents), "count")
	put("telemetry.trace_overhead_ratio", overhead, "ratio")

	st := tr.store
	put("store.bytes", float64(st.bytes), "bytes")
	put("store.cached_cells", float64(st.hits), "count")
	put("store.hit_ratio", ratio(float64(st.hits), float64(st.hits+st.misses)), "ratio")

	put("sweep.cells", float64(sw.cells), "count")
	put("sweep.cell_p50_s", sw.p50, "s")
	put("sweep.cell_max_s", sw.max, "s")
	put("sweep.worker_idle_s", sw.idle, "s")
	put("sweep.balance_ratio", sw.balance, "ratio")

	put("runtime.gc_cycles", float64(rt.gcCycles), "count")
	put("runtime.gc_cpu_s", rt.gcCPU, "s")
	put("runtime.mallocs", float64(rt.mallocs), "count")

	put("model.generated", float64(t.Generated), "count")
	put("model.delivered", float64(t.Delivered), "count")
	put("model.duplicates", float64(t.Duplicates), "count")
	put("model.delay_mean_s", t.delayMean(), "s")
	put("model.hops_mean", t.hopsMean(), "count")
	return m
}
