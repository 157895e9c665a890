package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"mlorass/internal/experiment"
	"mlorass/internal/sweepfarm"
	"mlorass/internal/sweepfarm/wire"
	"mlorass/internal/telemetry"
)

// validateWire checks the -serve/-connect flag combinations before any work
// starts.
func validateWire(fig, envName, serve, connect, listen, trace string, progress bool) error {
	if serve == "" && connect == "" {
		return nil
	}
	if serve != "" && connect != "" {
		return fmt.Errorf("-serve and -connect are exclusive: a process is the coordinator or a worker, not both")
	}
	switch fig {
	case "8", "9", "12", "13":
	default:
		return fmt.Errorf("-serve/-connect run the figure sweeps (figs 8/9/12/13); -fig %s runs in process", fig)
	}
	// Cell indexes restart per environment, so a remote worker cannot tell
	// which environment's grid a lease belongs to; the wire mode pins one
	// per process.
	if envName != "urban" && envName != "rural" {
		return fmt.Errorf("-serve/-connect need a single environment (-env urban or -env rural); %q is ambiguous over the wire", envName)
	}
	if connect != "" {
		if listen != "" {
			return fmt.Errorf("-connect is a worker process; -listen (observability) belongs on the -serve side, which sees every worker's events")
		}
		if progress {
			return fmt.Errorf("-connect is a worker process; -progress belongs on the -serve side, which tracks the whole sweep")
		}
	}
	if serve != "" && trace != "" {
		return fmt.Errorf("-serve computes no cells, so -trace would stay empty; pass -trace to the -connect workers")
	}
	return nil
}

// farmGrid lays out one environment's figure grid as farm cells. Without a
// store, artefacts travel inline in completion messages and cells carry no
// key.
func (sw sweeper) farmGrid(base experiment.Config, env experiment.Environment) (*experiment.FarmSweep, []sweepfarm.Cell, sweepfarm.ArtifactStore) {
	fsweep := experiment.NewFarmSweep(base, env, sw.reps)
	cells := fsweep.Cells()
	if sw.store == nil {
		for i := range cells {
			cells[i].Key = ""
		}
		return fsweep, cells, nil
	}
	return fsweep, cells, sw.store
}

// envRun is one environment's prepared -serve sweep: the grid, the artefact
// store, and the event handler feeding the tracker and stderr.
type envRun struct {
	sw        sweeper
	fsweep    *experiment.FarmSweep
	cells     []sweepfarm.Cell
	artifacts sweepfarm.ArtifactStore
	events    func(sweepfarm.Event)
	recovered int
}

// prepareEnv builds one environment's cells and event wiring.
func (sw sweeper) prepareEnv(base experiment.Config, env experiment.Environment) *envRun {
	r := &envRun{sw: sw}
	// The pool is remote, so its size is unknown here.
	sw.tracker.Begin(fmt.Sprintf("fig %s %s", sw.figName, env), 0)
	r.fsweep, r.cells, r.artifacts = sw.farmGrid(base, env)

	// The coordinator emits events (and runs Absorb) under its lock, so the
	// handler below is single-threaded: lastSnap set by OnResult is consumed
	// by the Done event that immediately follows the same absorption.
	var lastSnap telemetry.Snapshot
	r.fsweep.OnResult = func(res *experiment.Result) { lastSnap = res.Telemetry }
	tracker := sw.tracker
	r.events = func(e sweepfarm.Event) {
		switch e.Kind {
		case sweepfarm.EventLeased:
			tracker.FarmLeased(e.Worker)
		case sweepfarm.EventDone:
			tracker.FarmSettled(e.Worker)
			tracker.CellDone(e.Done, e.Total, e.Cached, lastSnap)
			lastSnap = telemetry.Snapshot{}
			if e.Cached {
				r.recovered++
			}
		case sweepfarm.EventDuplicate:
			tracker.FarmSettled(e.Worker)
			tracker.FarmDuplicate()
		case sweepfarm.EventRetry:
			tracker.FarmSettled(e.Worker)
			tracker.FarmRetry(e.Expired)
		case sweepfarm.EventQuarantined:
			tracker.FarmSettled(e.Worker)
			tracker.FarmQuarantined()
		}
		switch {
		case sw.progress:
			fmt.Fprintf(os.Stderr, "\r\x1b[K%s", tracker.Status().Line())
		case sw.quiet:
		case e.Kind == sweepfarm.EventDone:
			from := ""
			if e.Cached {
				from = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s%s (%s)\n", e.Done, e.Total, e.Cell.Label, from, workerName(e.Worker))
		case e.Kind == sweepfarm.EventRetry:
			fmt.Fprintf(os.Stderr, "  retry %s attempt %d (%s): %s\n", e.Cell.Label, e.Attempt, workerName(e.Worker), e.Err)
		case e.Kind == sweepfarm.EventQuarantined:
			fmt.Fprintf(os.Stderr, "  QUARANTINED %s after %d attempts: %s\n", e.Cell.Label, e.Attempt, e.Err)
		}
	}
	return r
}

// finish renders the sweep's outcome: tracker teardown, the store recovery
// line, the figure tables and the gap report.
func (r *envRun) finish(rep sweepfarm.Report, runErr error) error {
	for i := 0; i < rep.Crashes; i++ {
		r.sw.tracker.FarmCrash()
	}
	r.sw.tracker.Finish()
	if r.sw.progress {
		fmt.Fprintln(os.Stderr) // seal the status line
	}
	if runErr != nil {
		return runErr
	}
	if st := r.sw.store; st != nil {
		// Remote workers persist into the shared store from their own
		// processes; this side only sees what it recovered vs merged.
		fmt.Fprintf(os.Stderr, "expsweep: store %s: %d recovered, %d computed by remote workers\n",
			st.Dir(), r.recovered, rep.Done-r.recovered)
	}
	experiment.RenderFigureTables(os.Stdout, r.fsweep.Points(), r.sw.reps, r.sw.percentiles)
	if gaps := rep.Gaps(); gaps != "" {
		// The explicit gap contract: a sweep missing cells says so on
		// stdout, right under the tables it could not fill.
		fmt.Print(gaps)
	}
	return nil
}

// serveSweep runs one environment's grid as the coordinator half of a
// multi-process farm: cells are leased to remote expsweep -connect workers
// over TCP, and the tables print here once every cell is done or
// quarantined. After the sweep completes the server keeps answering for the
// drain window so connected workers hear "done" and exit cleanly, instead
// of dying with ErrLost against a vanished coordinator.
func (sw sweeper) serveSweep(addr string, base experiment.Config, env experiment.Environment,
	leaseTTL, drain time.Duration) error {

	r := sw.prepareEnv(base, env)
	coord, err := sweepfarm.NewCoordinator(r.cells, r.artifacts, nil, sweepfarm.CoordConfig{
		Lease:  sweepfarm.LeaseConfig{TTL: leaseTTL, Seed: base.Seed},
		Verify: r.fsweep.Verify,
		Absorb: r.fsweep.Absorb,
		Events: r.events,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := wire.NewServer(coord, wire.ServerConfig{
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "expsweep: "+format+"\n", args...) },
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "expsweep: coordinating fig %s %s on %s (%d cells; workers join with -connect)\n",
		sw.figName, env, ln.Addr(), len(r.cells))

	<-coord.DoneCh()
	time.Sleep(drain)
	srv.Close()
	return r.finish(coord.Report(), <-serveErr)
}

// connectSweep runs one worker process against an expsweep -serve
// coordinator, computing -parallel cells at once. The worker derives the
// same cell grid from its own flags and refuses any leased cell whose
// identity (key, label) does not match — the loud failure mode for a
// figure/env/scale/seed mismatch between the two processes. It exits 0 once
// the coordinator reports the sweep done, and with an error if the
// coordinator stays unreachable for the give-up window.
func (sw sweeper) connectSweep(addr string, base experiment.Config, env experiment.Environment,
	id string, giveUp time.Duration) error {

	if id == "" {
		id = defaultWorkerID()
	}
	fsweep, local, artifacts := sw.farmGrid(base, env)
	run := func(c sweepfarm.Cell) ([]byte, error) {
		if c.Index < 0 || c.Index >= len(local) {
			return nil, fmt.Errorf("leased cell index %d is outside this worker's %d-cell grid — figure/env/scale flags disagree with the coordinator", c.Index, len(local))
		}
		if lc := local[c.Index]; lc.Key != c.Key || lc.Label != c.Label {
			return nil, fmt.Errorf("leased cell %d is %q (key %.12s) but this worker derives %q (key %.12s) — seed/reps/store flags disagree with the coordinator",
				c.Index, c.Label, c.Key, lc.Label, lc.Key)
		}
		return fsweep.Run(c)
	}
	client := wire.NewClient(wire.ClientConfig{Addr: addr})
	defer client.Close()
	w := sweepfarm.NewWorker(sweepfarm.WorkerConfig{
		ID:          id,
		Concurrency: sw.workers,
		GiveUp:      giveUp,
	}, client, artifacts, run, fsweep.Verify, nil, nil)
	fmt.Fprintf(os.Stderr, "expsweep: worker %s computing fig %s %s via %s\n", id, sw.figName, env, addr)
	if err := w.Run(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "expsweep: worker %s: sweep complete\n", id)
	return nil
}

// defaultWorkerID names a -connect worker after its host and pid, so two
// workers on one machine (or twenty across a cluster) never collide.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// workerName labels a farm event's worker; recovered cells have none.
func workerName(w string) string {
	if w == "" {
		return "store"
	}
	return w
}
