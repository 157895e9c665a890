package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"mlorass/internal/telemetry"
)

// SpanRecord is one completed phase span as stored in the flight recorder
// and emitted on /spans. Times are nanoseconds relative to the recorder's
// creation, so dumps from one process share a clock.
type SpanRecord struct {
	// WallNS is the span's start on the recorder's monotonic clock.
	WallNS int64 `json:"wall_ns"`
	// DurNS is the span's wall-clock duration.
	DurNS int64 `json:"dur_ns"`
	// Name is the span's phase, "cell" for sweep cells.
	Name string `json:"name"`
	// Shard is the sweep worker index for cell spans.
	Shard int `json:"shard"`
	// SimNS is the simulation clock at span end.
	SimNS int64 `json:"sim_ns"`
	// Attr is the phase-specific magnitude (see telemetry.SpanEnd.Attr).
	Attr int64 `json:"attr"`
	// Label identifies the work item for sweep cells, empty otherwise.
	Label string `json:"label,omitempty"`
}

// PhaseTotal is the aggregate of every span recorded under one (name,
// shard) pair — these survive ring eviction, so the dashboard's span
// totals cover the whole run even after the ring wraps.
type PhaseTotal struct {
	Name  string
	Shard int
	Count uint64
	Total time.Duration
	Max   time.Duration
}

type phaseKey struct {
	name  string
	shard int
}

type phaseAgg struct {
	count uint64
	total time.Duration
	max   time.Duration
}

// DefaultRingSize is the flight recorder's span capacity when none is given.
const DefaultRingSize = 4096

// FlightRecorder implements telemetry.SpanSink: a bounded in-memory ring of
// recent spans plus per-phase running totals. Recording a span on the
// steady state takes one mutex round and no allocation (the ring is
// pre-sized; totals allocate only on first sight of a (name, shard) pair).
// A nil *FlightRecorder is a valid no-op sink.
type FlightRecorder struct {
	t0 time.Time

	mu     sync.Mutex
	ring   []SpanRecord
	seq    uint64 // spans ever recorded; ring slot = seq % len(ring)
	totals map[phaseKey]*phaseAgg
}

// NewFlightRecorder returns a recorder keeping the last size spans
// (DefaultRingSize when size <= 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &FlightRecorder{
		t0:     time.Now(),
		ring:   make([]SpanRecord, size),
		totals: make(map[phaseKey]*phaseAgg),
	}
}

// StartSpan implements telemetry.SpanSink: the token is the monotonic
// offset since the recorder's creation.
func (f *FlightRecorder) StartSpan() telemetry.SpanToken {
	if f == nil {
		return 0
	}
	return telemetry.SpanToken(time.Since(f.t0))
}

// EndSpan implements telemetry.SpanSink.
func (f *FlightRecorder) EndSpan(e telemetry.SpanEnd) {
	if f == nil {
		return
	}
	now := time.Since(f.t0)
	dur := now - time.Duration(e.Token)
	if dur < 0 {
		dur = 0
	}
	f.mu.Lock()
	f.ring[f.seq%uint64(len(f.ring))] = SpanRecord{
		WallNS: int64(e.Token),
		DurNS:  int64(dur),
		Name:   e.Name,
		Shard:  e.Shard,
		SimNS:  e.At.Nanoseconds(),
		Attr:   e.Attr,
		Label:  e.Label,
	}
	f.seq++
	k := phaseKey{e.Name, e.Shard}
	a := f.totals[k]
	if a == nil {
		a = &phaseAgg{}
		f.totals[k] = a
	}
	a.count++
	a.total += dur
	if dur > a.max {
		a.max = dur
	}
	f.mu.Unlock()
}

// Recorded reports how many spans have ever been recorded.
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Dropped reports how many spans the ring has evicted.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seq <= uint64(len(f.ring)) {
		return 0
	}
	return f.seq - uint64(len(f.ring))
}

// Spans returns up to max retained spans, oldest first (all of them when
// max <= 0).
func (f *FlightRecorder) Spans(max int) []SpanRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.seq
	if n > uint64(len(f.ring)) {
		n = uint64(len(f.ring))
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]SpanRecord, 0, n)
	for i := f.seq - n; i < f.seq; i++ {
		out = append(out, f.ring[i%uint64(len(f.ring))])
	}
	return out
}

// PhaseTotals returns the per-(name, shard) aggregates, sorted by name then
// shard. Unlike the ring these cover every span ever recorded.
func (f *FlightRecorder) PhaseTotals() []PhaseTotal {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]PhaseTotal, 0, len(f.totals))
	for k, a := range f.totals {
		out = append(out, PhaseTotal{Name: k.name, Shard: k.shard, Count: a.count, Total: a.total, Max: a.max})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// WriteJSONL dumps the retained spans, oldest first, one JSON object per
// line — the /spans wire format and the -spans file format.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range f.Spans(0) {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpOnPanic re-raises an in-flight panic after writing the span ring to
// stderr, so a crashed instrumented run leaves its last moments behind.
// Use: defer flight.DumpOnPanic().
func (f *FlightRecorder) DumpOnPanic() {
	if f == nil {
		return
	}
	if r := recover(); r != nil {
		fmt.Fprintf(os.Stderr, "panic: %v — dumping %d retained spans:\n", r, len(f.Spans(0)))
		_ = f.WriteJSONL(os.Stderr)
		panic(r)
	}
}
