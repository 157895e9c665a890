package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"mlorass/internal/telemetry"
)

// span is one timed phase: a driver call ("run", "sweep") or a sweep cell
// that ParallelSweep reports through the sink ("cell").
type span struct {
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"`
	Cached  bool   `json:"cached,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// spanRecorder is the driver's telemetry.SpanSink. It timestamps spans on
// the monotonic clock relative to its creation and keeps them in memory
// until write.
type spanRecorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// StartSpan implements telemetry.SpanSink.
func (r *spanRecorder) StartSpan() telemetry.SpanToken {
	return telemetry.SpanToken(time.Since(r.origin))
}

// EndSpan implements telemetry.SpanSink. Sweep cells carry their
// env/scheme/gw/rep label and Attr 1 when the store served them.
func (r *spanRecorder) EndSpan(e telemetry.SpanEnd) {
	end := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name:    e.Name,
		Label:   e.Label,
		Cached:  e.Name == "cell" && e.Attr == 1,
		StartNS: int64(e.Token),
		DurNS:   int64(end) - int64(e.Token),
	})
}

// around records fn as a driver span.
func (r *spanRecorder) around(name, label string, fn func() error) error {
	tok := r.StartSpan()
	err := fn()
	r.EndSpan(telemetry.SpanEnd{Token: tok, Name: name, Label: label})
	return err
}

// write dumps the spans as JSON lines in start order.
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepSummary is the executor's view of a traced sweep, computed from the
// "cell" spans and the enclosing "sweep" span.
type sweepSummary struct {
	cells    int
	p50, max float64 // cell durations, seconds
	idle     float64 // workers × sweep wall − Σ cell durations, seconds
	balance  float64 // Σ cell durations ÷ (workers × sweep wall)
}

func (r *spanRecorder) summary(workers int) sweepSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cells []float64
	var wall, busy float64
	for _, s := range r.spans {
		d := time.Duration(s.DurNS).Seconds()
		switch s.Name {
		case "cell":
			cells = append(cells, d)
			busy += d
		case "sweep":
			wall += d
		}
	}
	if len(cells) == 0 || wall == 0 {
		return sweepSummary{}
	}
	sort.Float64s(cells)
	capacity := float64(workers) * wall
	return sweepSummary{
		cells:   len(cells),
		p50:     median(cells),
		max:     cells[len(cells)-1],
		idle:    capacity - busy,
		balance: busy / capacity,
	}
}
