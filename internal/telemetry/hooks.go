package telemetry

import "time"

// This file declares the observability hook shapes the simulation engine and
// the sweep executor call into. The implementations live in internal/obs —
// telemetry only owns the contract, so the simulation packages (which the
// determinism lint bans from reading the wall clock) never import a
// clock-bearing package. All hooks are optional: a nil sink/attacher
// disables instrumentation with a single branch and zero allocations on the
// caller's side.

// SpanToken is an opaque start mark handed back by SpanSink.StartSpan and
// returned in the matching SpanEnd. Callers treat it as a black box; the
// flight recorder encodes its monotonic start time in it.
type SpanToken int64

// SpanEnd closes one timed phase. Callers fill the identifying fields; the
// sink supplies the wall-clock duration from the token.
type SpanEnd struct {
	// Token is the value StartSpan returned for this span.
	Token SpanToken
	// Name identifies the phase ("cell" for sweep cells). Call sites pass
	// compile-time constants so ending a span never allocates.
	Name string
	// Shard is the index of the sweep worker that ran a cell span. The
	// name is kept because it is the `shard` label on /metrics and /spans.
	Shard int
	// At is the simulation clock at span end (the configured duration for
	// sweep cells).
	At time.Duration
	// Attr is one phase-specific magnitude: the cached flag (0/1) for
	// "cell".
	Attr int64
	// Label optionally identifies the work item (sweep cells use
	// "env/scheme/gw=N/rep=N").
	Label string
}

// SpanSink receives phase spans. Implementations must be safe for
// concurrent use: sweep workers end cell spans from their own goroutines.
type SpanSink interface {
	StartSpan() SpanToken
	EndSpan(SpanEnd)
}

// LiveAttacher is given every run's Recorder for its lifetime, so an
// external scraper can snapshot metrics mid-run (Recorder snapshots are
// concurrency-safe). Attach returns a detach func the engine calls once the
// run quiesces; implementations typically fold the recorder's final
// snapshot into a cumulative base at that point. Attach and detach must be
// safe for concurrent use — parallel sweep workers attach one recorder per
// running cell.
type LiveAttacher interface {
	Attach(r *Recorder) (detach func())
}
