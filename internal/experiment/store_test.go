package experiment

import (
	"fmt"
	"testing"
	"time"

	"mlorass/internal/routing"
	"mlorass/internal/runstore"
	"mlorass/internal/tfl"
)

func TestCacheKeyDeterministicAndSensitive(t *testing.T) {
	cfg := sweepTestConfig()
	k1, ok1 := cacheKey(cfg)
	k2, ok2 := cacheKey(cfg)
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("cache key unstable: %q/%v vs %q/%v", k1, ok1, k2, ok2)
	}
	// Normalized and un-normalized forms of the same config share a key.
	norm := cfg
	norm.Normalize()
	if kn, _ := cacheKey(norm); kn != k1 {
		t.Fatal("normalization changed the cache key")
	}
	// Every semantic change must change the key.
	variants := map[string]func(*Config){
		"seed":      func(c *Config) { c.Seed = 99 },
		"scheme":    func(c *Config) { c.Scheme = routing.SchemeROBC },
		"gateways":  func(c *Config) { c.NumGateways = 7 },
		"duration":  func(c *Config) { c.Duration = 3 * time.Hour },
		"alpha":     func(c *Config) { c.Alpha = 0.9 },
		"outage":    func(c *Config) { c.Disruption.GatewayOutageFraction = 0.5 },
		"mobility":  func(c *Config) { c.Mobility.Model = MobilityRandomWaypoint },
		"telemetry": func(c *Config) { c.Telemetry.Disabled = true },
		"mac-adr":   func(c *Config) { c.MAC.ADR = true },
		"mac-conf":  func(c *Config) { c.MAC.Confirmed = true },
	}
	for name, mutate := range variants {
		c := cfg
		mutate(&c)
		if kv, ok := cacheKey(c); !ok || kv == k1 {
			t.Errorf("%s change did not change the cache key", name)
		}
	}
	// An explicit dataset is uncacheable.
	withDS := cfg
	withDS.Dataset = &tfl.Dataset{}
	if _, ok := cacheKey(withDS); ok {
		t.Fatal("explicit dataset reported cacheable")
	}
}

func TestResultArtifactRoundTrip(t *testing.T) {
	cfg := telemetryTestConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResult(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != res.String() || back.Report() != res.Report() {
		t.Fatal("decoded artefact renders differently")
	}
	if back.Delay != res.Delay || back.Hops != res.Hops || back.Delivered != res.Delivered {
		t.Fatal("decoded artefact summaries differ")
	}
	if back.Telemetry.Delay.Percentile(99) != res.Telemetry.Delay.Percentile(99) {
		t.Fatal("decoded telemetry percentiles differ")
	}
	if back.DelayPercentile(95) != res.DelayPercentile(95) {
		t.Fatal("decoded raw delays differ")
	}
	if back.MatchedDelayMean(100) != res.MatchedDelayMean(100) {
		t.Fatal("decoded matched-coverage mean differs")
	}
	tb, rb := back.Throughput.Counts(), res.Throughput.Counts()
	for i := range rb {
		if tb[i] != rb[i] {
			t.Fatal("decoded throughput series differs")
		}
	}
}

// sweepTables renders every aggregate figure table for comparison.
func sweepTables(points []AggregatePoint) string {
	return fmt.Sprintf("%s\n%s\n%s\n%s\n%s",
		Fig8AggTable(points), Fig8PercentilesAggTable(points),
		Fig9AggTable(points), Fig12AggTable(points), Fig13AggTable(points))
}

// TestParallelSweepStoreRoundTrip is the resumability acceptance test: a
// repeated sweep against the same store re-simulates nothing (every cell
// loads from cache) and renders byte-identical aggregate tables.
func TestParallelSweepStoreRoundTrip(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := sweepTestConfig()
	opts := SweepOptions{Workers: 4, Reps: 2, Store: store}

	var firstCached, secondCached, secondTotal int
	opts.Progress = func(u CellUpdate) {
		if u.Cached {
			firstCached++
		}
	}
	first, err := ParallelSweep(base, Urban, opts)
	if err != nil {
		t.Fatal(err)
	}
	if firstCached != 0 {
		t.Fatalf("cold sweep reported %d cached cells", firstCached)
	}
	jobs := len(GatewaySweep()) * len(Schemes()) * opts.Reps
	if st := store.Stats(); st.Puts != uint64(jobs) {
		t.Fatalf("cold sweep persisted %d artefacts, want %d", st.Puts, jobs)
	}

	opts.Progress = func(u CellUpdate) {
		secondTotal++
		if u.Cached {
			secondCached++
		}
	}
	second, err := ParallelSweep(base, Urban, opts)
	if err != nil {
		t.Fatal(err)
	}
	if secondCached != jobs || secondTotal != jobs {
		t.Fatalf("warm sweep re-simulated %d of %d cells, want 0", secondTotal-secondCached, secondTotal)
	}
	if st := store.Stats(); st.Puts != uint64(jobs) {
		t.Fatalf("warm sweep wrote %d extra artefacts", st.Puts-uint64(jobs))
	}
	if got, want := sweepTables(second), sweepTables(first); got != want {
		t.Fatalf("cached sweep tables differ:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The matched-coverage table reads raw replication-0 samples; it
	// matches too.
	if got, want := Fig8MatchedTable(second), Fig8MatchedTable(first); got != want {
		t.Fatal("cached matched-coverage table differs")
	}
}

// TestParallelSweepStoreResume simulates an interrupted sweep: a store
// pre-populated with only some cells loads those and simulates the rest.
func TestParallelSweepStoreResume(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := sweepTestConfig()

	// "Interrupted" first pass: persist just two cells by hand.
	prePopulated := 0
	for _, gw := range GatewaySweep()[:2] {
		cfg := base
		cfg.Environment = Urban
		cfg.D2DRangeM = 0
		cfg.NumGateways = gw
		cfg.Scheme = routing.SchemeNoRouting
		cfg.Seed = RepSeed(base.Seed, 0)
		if _, cached, err := runThroughStore(store, cfg); err != nil || cached {
			t.Fatalf("pre-populate: cached=%v err=%v", cached, err)
		}
		prePopulated++
	}

	cachedSeen := 0
	points, err := ParallelSweep(base, Urban, SweepOptions{Workers: 2, Reps: 1, Store: store,
		Progress: func(u CellUpdate) {
			if u.Cached {
				cachedSeen++
				if u.Label != "urban/NoRouting/gw=10/rep=0" && u.Label != "urban/NoRouting/gw=13/rep=0" {
					t.Errorf("unexpected cached cell %s", u.Label)
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if cachedSeen != prePopulated {
		t.Fatalf("resume loaded %d cached cells, want %d", cachedSeen, prePopulated)
	}
	// The resumed sweep matches a from-scratch sweep exactly.
	fresh, err := ParallelSweep(base, Urban, SweepOptions{Workers: 2, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sweepTables(points) != sweepTables(fresh) {
		t.Fatal("resumed sweep tables differ from from-scratch sweep")
	}
}

// TestRunThroughStoreTruncatedArtefact is the regression test for the
// truncated-artefact family: files damaged in ways that still parse as JSON
// (a crash mid-rewrite, a hand-edited store, disk corruption landing on a
// value) must read as corruption and be recomputed, never served as a cached
// cell of zeros. The nastiest case — `{"schema":N}` with the current schema
// number — previously decoded "successfully" into an all-zero Result with a
// nil throughput series.
func TestRunThroughStoreTruncatedArtefact(t *testing.T) {
	cfg := sweepTestConfig()
	key, ok := cacheKey(cfg)
	if !ok {
		t.Fatal("config not cacheable")
	}
	// A genuine artefact, to derive realistic truncations from.
	genuine, err := encodeResult(mustRun(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][]byte{
		"empty file":                            {},
		"json null":                             []byte("null"),
		"garbage":                               []byte("\x00\xff\x17 not json at all"),
		"truncated mid-token":                   genuine[:len(genuine)/2],
		"valid json, current schema, no fields": []byte(fmt.Sprintf(`{"schema":%d}`, storeSchemaVersion)),
		"schema only, no throughput":            []byte(fmt.Sprintf(`{"schema":%d,"delivered":3}`, storeSchemaVersion)),
		"inconsistent delivery samples":         []byte(fmt.Sprintf(`{"schema":%d,"delivered":3,"throughput":{"bin_seconds":600,"counts":[0]},"raw_delays":[1.0]}`, storeSchemaVersion)),
		"stale schema":                          []byte(`{"schema":1}`),
	}
	for name, data := range corruptions {
		t.Run(name, func(t *testing.T) {
			store, err := runstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(key, data); err != nil {
				t.Fatal(err)
			}
			res, cached, err := runThroughStore(store, cfg)
			if err != nil {
				t.Fatalf("corrupt artefact failed the cell: %v", err)
			}
			if cached {
				t.Fatal("corrupt artefact served as a cached result")
			}
			if res.Throughput == nil || res.Delivered == 0 {
				t.Fatal("recomputed cell is not a real run")
			}
			// The recompute repaired the entry: the next read hits and
			// round-trips the real result.
			res2, cached2, err := runThroughStore(store, cfg)
			if err != nil || !cached2 {
				t.Fatalf("after repair: cached=%v err=%v", cached2, err)
			}
			if res2.Report() != res.Report() {
				t.Fatal("repaired artefact renders differently")
			}
		})
	}
}

// TestSweepResumesOverTruncatedArtefact drives the same regression through
// the full sweep engine: one truncated cell in an otherwise warm store must
// cost exactly one re-simulation, not fail (or poison) the sweep.
func TestSweepResumesOverTruncatedArtefact(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := sweepTestConfig()
	opts := SweepOptions{Workers: 2, Reps: 1, Store: store}
	first, err := ParallelSweep(base, Urban, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate one stored cell the way a crash mid-rewrite would.
	cfg := base
	cfg.Environment = Urban
	cfg.D2DRangeM = 0
	cfg.NumGateways = GatewaySweep()[0]
	cfg.Scheme = routing.SchemeNoRouting
	cfg.Seed = RepSeed(base.Seed, 0)
	key, ok := cacheKey(cfg)
	if !ok {
		t.Fatal("cell not cacheable")
	}
	if err := store.Put(key, []byte(fmt.Sprintf(`{"schema":%d}`, storeSchemaVersion))); err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	opts.Progress = func(u CellUpdate) {
		if !u.Cached {
			recomputed++
		}
	}
	second, err := ParallelSweep(base, Urban, opts)
	if err != nil {
		t.Fatalf("sweep failed over a truncated artefact: %v", err)
	}
	if recomputed != 1 {
		t.Fatalf("truncated cell cost %d re-simulations, want exactly 1", recomputed)
	}
	if got, want := sweepTables(second), sweepTables(first); got != want {
		t.Fatalf("recomputed sweep tables differ:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunThroughStoreCorruptArtefact checks self-healing: a corrupt stored
// artefact is ignored, re-simulated, and overwritten.
func TestRunThroughStoreCorruptArtefact(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sweepTestConfig()
	key, ok := cacheKey(cfg)
	if !ok {
		t.Fatal("config not cacheable")
	}
	if err := store.Put(key, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	res, cached, err := runThroughStore(store, cfg)
	if err != nil || cached {
		t.Fatalf("corrupt artefact: cached=%v err=%v", cached, err)
	}
	// The overwrite repaired the entry: next call hits.
	res2, cached2, err := runThroughStore(store, cfg)
	if err != nil || !cached2 {
		t.Fatalf("after repair: cached=%v err=%v", cached2, err)
	}
	if res2.String() != res.String() {
		t.Fatal("repaired artefact differs")
	}
}
