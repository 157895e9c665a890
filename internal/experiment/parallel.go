package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/telemetry"
)

// SweepOptions configures the sweep executor behind ParallelSweep,
// OutageSweep and ADRSweep.
type SweepOptions struct {
	// Workers is the worker-pool size; values < 1 mean GOMAXPROCS.
	Workers int
	// Reps is the number of replications per cell, each with a seed
	// derived from the base config's via RepSeed; values < 1 mean 1.
	// OutageSweep and ADRSweep render one replication per cell and reject
	// Reps > 1 with ErrSingleRep.
	Reps int
	// Progress, when non-nil, is called once per completed replication,
	// in completion order, from a single goroutine: calls never overlap,
	// and the sweep waits for each to return.
	Progress func(CellUpdate)
	// Store, when non-nil, backs the sweep with the run-artifact cache:
	// a cell whose (config, seed) key is already stored is loaded
	// instead of re-simulated, and every freshly simulated cell is
	// persisted — so repeating or resuming an interrupted sweep only
	// pays for the cells it has never computed. Cached cells reproduce
	// the original Result byte for byte in every table.
	Store *runstore.Store
}

// ErrSingleRep rejects Reps > 1 on a sweep whose table renders one
// replication per cell (OutageSweep, ADRSweep).
var ErrSingleRep = errors.New("this sweep renders one replication per cell; Reps must be 1")

// CellUpdate is one completed replication, streamed while a sweep runs.
type CellUpdate struct {
	// Label names the cell and replication, e.g. "urban/ROBC/gw=10/rep=0"
	// in the figure grid, "urban/ROBC/down=20%" in the outage sweep.
	Label string
	// Rep is the replication index within the cell, Seed its derived seed.
	Rep  int
	Seed uint64
	// Result is the completed run's measurements.
	Result *Result
	// Cached reports that the result was loaded from the run store
	// instead of simulated.
	Cached bool
	// Completed counts runs finished so far (including this one) out of
	// Total, for progress displays.
	Completed int
	Total     int
}

// AggregatePoint is one (environment, scheme, gateway-count) cell of a
// replicated figure sweep: every replication's Result plus the collapsed
// cross-replication statistics.
type AggregatePoint struct {
	Environment Environment
	Scheme      routing.Scheme
	Gateways    int
	// Seeds holds the replication seeds in replication order.
	Seeds []uint64
	// Reps holds each replication's Result in replication order.
	Reps []*Result
	// Agg is the cross-replication aggregate of Reps.
	Agg *Aggregate
}

// RepSeed derives the seed of replication rep from a base seed.
// Replication 0 uses the base seed itself, so a single-replication sweep
// reproduces a plain Run(cfg) exactly; later replications mix the index
// through SplitMix64-style finalisation so nearby bases stay uncorrelated.
func RepSeed(base uint64, rep int) uint64 {
	if rep == 0 {
		return base
	}
	z := base + uint64(rep)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sweepJob is one (cell, replication) run of a sweep. The layout that
// emits it formats the label once; spans, progress and farm cells read it.
type sweepJob struct {
	cell  int // index into the layout's cell slice
	rep   int
	cfg   Config
	label string
}

// runSweep is the one in-process sweep executor: it runs jobs across a pool
// of opts.Workers goroutines (values < 1 mean GOMAXPROCS), each through the
// run store when opts.Store is set, with one "cell" span per job when the
// config carries a span sink. Every result is handed to slot, then to
// opts.Progress, from the single collector goroutine in completion order.
// Once any job fails the workers stop claiming jobs, and the lowest-index
// failure is returned so a failing sweep names the same job no matter how
// completions interleave.
func runSweep(jobs []sweepJob, opts SweepOptions, slot func(j sweepJob, res *Result)) error {
	n := len(jobs)
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	type done struct {
		idx    int
		res    *Result
		cached bool
		err    error
	}
	doneCh := make(chan done)
	var (
		next   atomic.Int64 // index of the next job to claim
		failed atomic.Bool  // workers stop claiming once set
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				res, cached, err := runJob(i, jobs[i], opts.Store)
				doneCh <- done{idx: i, res: res, cached: cached, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(doneCh)
	}()

	firstErrIdx, firstErr := n, error(nil)
	completed := 0
	for d := range doneCh {
		if d.err != nil {
			failed.Store(true)
			if d.idx < firstErrIdx {
				firstErrIdx, firstErr = d.idx, d.err
			}
			continue
		}
		j := jobs[d.idx]
		slot(j, d.res)
		completed++
		if opts.Progress != nil {
			opts.Progress(CellUpdate{
				Label:     j.label,
				Rep:       j.rep,
				Seed:      j.cfg.Seed,
				Result:    d.res,
				Cached:    d.cached,
				Completed: completed,
				Total:     n,
			})
		}
	}
	if firstErr != nil {
		return fmt.Errorf("sweep %s: %w", jobs[firstErrIdx].label, firstErr)
	}
	return nil
}

// runJob runs job i through the store and, when the config carries a span
// sink, records one "cell" span: wall time, whether the store served it
// (attr 1) or it was simulated (attr 0), and the job label.
func runJob(i int, j sweepJob, store *runstore.Store) (*Result, bool, error) {
	sink := j.cfg.Telemetry.Spans
	var tok telemetry.SpanToken
	if sink != nil {
		tok = sink.StartSpan()
	}
	res, hit, err := runThroughStore(store, j.cfg)
	if sink != nil && err == nil {
		var attr int64
		if hit {
			attr = 1
		}
		sink.EndSpan(telemetry.SpanEnd{
			Token: tok, Name: "cell", Shard: i, At: j.cfg.Duration, Attr: attr, Label: j.label,
		})
	}
	return res, hit, err
}

// ParallelSweep runs the full figure grid — every scheme × gateway count for
// the given environment, replicated opts.Reps times with seeds derived via
// RepSeed — on the sweep executor. Each Run is independently seeded and
// shares no state, so cells execute concurrently; results are slotted back
// into deterministic figure order (gateway count outer, scheme inner,
// replication innermost) regardless of completion order, and each cell's
// replications are collapsed into an Aggregate.
func ParallelSweep(base Config, env Environment, opts SweepOptions) ([]AggregatePoint, error) {
	cells, jobs := layoutSweep(base, env, opts.Reps)
	if err := runSweep(jobs, opts, func(j sweepJob, res *Result) {
		cells[j.cell].Reps[j.rep] = res
	}); err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Agg = AggregateResults(cells[i].Reps)
	}
	return cells, nil
}

// Fig8AggTable renders the replicated mean end-to-end delay table (paper
// Fig. 8) with 95% confidence intervals across replications.
func Fig8AggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 8: mean end-to-end delay [s] (mean ± 95% CI)",
		func(a *Aggregate) string {
			return fmt.Sprintf("%7.1f ±%5.1f", a.MeanDelayS.Mean(), a.MeanDelayS.CI95())
		})
}

// Fig8PercentilesAggTable renders the pooled end-to-end delay percentiles
// (p50/p95/p99) per cell, computed from the exactly merged per-replication
// delay histograms — true population percentiles, not averaged
// per-replication percentiles. It goes beyond the paper's Fig. 8 mean ± CI:
// tail latency is the quantity a production deployment is provisioned by.
func Fig8PercentilesAggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 8 (percentiles): end-to-end delay p50/p95/p99 [s] (pooled across reps)",
		func(a *Aggregate) string {
			p50, p95, p99 := a.DelayPercentiles()
			return fmt.Sprintf("%5.1f/%5.0f/%5.0f", p50, p95, p99)
		})
}

// Fig9AggTable renders replicated total throughput (paper Fig. 9).
func Fig9AggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 9: total throughput [messages delivered] (mean ± 95% CI)",
		func(a *Aggregate) string {
			return fmt.Sprintf("%7.0f ±%5.0f", a.Delivered.Mean(), a.Delivered.CI95())
		})
}

// Fig12AggTable renders the replicated mean hop count (paper Fig. 12).
func Fig12AggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 12: mean hops per delivered message (mean ± 95% CI)",
		func(a *Aggregate) string {
			return fmt.Sprintf("%6.2f ±%5.2f", a.MeanHops.Mean(), a.MeanHops.CI95())
		})
}

// Fig13AggTable renders the replicated per-node message overhead (paper
// Fig. 13).
func Fig13AggTable(points []AggregatePoint) string {
	return aggTable(points, "Fig 13: mean messages sent per node (mean ± 95% CI)",
		func(a *Aggregate) string {
			return fmt.Sprintf("%7.1f ±%5.1f", a.SendsPerNode.Mean(), a.SendsPerNode.CI95())
		})
}

// OverheadRatiosAgg returns, per gateway count, each forwarding scheme's
// replication-mean message-send overhead relative to NoRouting (the paper
// reports 1.6–2.2×).
func OverheadRatiosAgg(points []AggregatePoint) map[int]map[routing.Scheme]float64 {
	base := map[int]float64{}
	for _, p := range points {
		if p.Scheme == routing.SchemeNoRouting {
			base[p.Gateways] = p.Agg.SendsPerNode.Mean()
		}
	}
	out := map[int]map[routing.Scheme]float64{}
	for _, p := range points {
		if p.Scheme == routing.SchemeNoRouting {
			continue
		}
		b := base[p.Gateways]
		if b <= 0 {
			continue
		}
		if out[p.Gateways] == nil {
			out[p.Gateways] = map[routing.Scheme]float64{}
		}
		out[p.Gateways][p.Scheme] = p.Agg.SendsPerNode.Mean() / b
	}
	return out
}

// Fig8MatchedTable renders mean delay at matched delivery coverage: for each
// gateway count, every scheme's mean over its K fastest deliveries, where K
// is the smallest delivery count among the schemes at that gateway count.
// This removes the survivorship bias of the plain mean (a forwarding scheme
// that rescues otherwise-undeliverable messages adds slow samples the
// baseline's mean omits) and is the fair delay comparison EXPERIMENTS.md
// reports against the paper's 10-25 % reduction. It reads replication 0 of
// each cell: it needs raw per-delivery samples, not aggregates. Cells with
// no replication-0 result are left out.
func Fig8MatchedTable(points []AggregatePoint) string {
	var measured []AggregatePoint
	minDelivered := map[int]int{}
	for _, p := range points {
		if len(p.Reps) == 0 || p.Reps[0] == nil {
			continue
		}
		measured = append(measured, p)
		if cur, ok := minDelivered[p.Gateways]; !ok || p.Reps[0].Delivered < cur {
			minDelivered[p.Gateways] = p.Reps[0].Delivered
		}
	}
	return gridTable(measured, "Fig 8 (matched coverage): mean delay [s] over each scheme's K fastest deliveries", "",
		func(p AggregatePoint) string {
			return fmt.Sprintf("%13.1f", p.Reps[0].MatchedDelayMean(minDelivered[p.Gateways]))
		})
}

// aggTable renders a gateways × schemes grid of aggregate cells.
func aggTable(points []AggregatePoint, title string, cell func(*Aggregate) string) string {
	reps := 0
	for _, p := range points {
		if p.Agg != nil && p.Agg.Reps > reps {
			reps = p.Agg.Reps
		}
	}
	return gridTable(points, title, fmt.Sprintf(", %d rep(s)", reps), func(p AggregatePoint) string {
		if p.Agg == nil {
			return "-"
		}
		return cell(p.Agg)
	})
}

// gridTable renders a gateways × schemes grid: a title line naming the
// environment (then suffix), one row per gateway count present in points,
// in figure order, and "-" for a missing cell.
func gridTable(points []AggregatePoint, title, suffix string, cell func(AggregatePoint) string) string {
	byKey := map[[2]int]string{}
	gwSet := map[int]bool{}
	var env Environment
	for _, p := range points {
		byKey[[2]int{p.Gateways, int(p.Scheme)}] = cell(p)
		gwSet[p.Gateways] = true
		env = p.Environment
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s environment%s\n", title, env, suffix)
	fmt.Fprintf(&b, "%-18s", "gateways (paper)")
	for _, s := range Schemes() {
		fmt.Fprintf(&b, " | %16s", s)
	}
	b.WriteByte('\n')
	for _, g := range GatewaySweep() {
		if !gwSet[g] {
			continue
		}
		fmt.Fprintf(&b, "%3d (%3d)         ", g, PaperEquivalentGateways(g))
		for _, s := range Schemes() {
			c, ok := byKey[[2]int{g, int(s)}]
			if !ok {
				c = "-"
			}
			fmt.Fprintf(&b, " | %16s", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
