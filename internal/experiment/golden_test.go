package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files were captured from the pre-scenario-engine tree, so these
// tests prove the mobility/disruption refactor left the paper-default
// simulation byte-identical: same Report() text, same figure tables, for the
// same seed. Regenerate deliberately with `go test -run Golden -update`.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenQuickReports locks Result.Report() for QuickConfig at seed 1
// across all three schemes: determinism or formatting regressions fail here
// before they corrupt a figure.
func TestGoldenQuickReports(t *testing.T) {
	var rep string
	for _, scheme := range Schemes() {
		cfg := QuickConfig()
		cfg.Seed = 1
		cfg.Scheme = scheme
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep += res.Report()
	}
	goldenCompare(t, "report_quick_seed1.golden", rep)
}

// TestGoldenFigBlock locks the complete figure-sweep table block that
// expsweep prints for one environment: every Fig 8/9/12/13 table over all
// seven gateway counts, the pooled percentile table, the matched-coverage
// table and the overhead-ratio lines, for QuickConfig at seed 1, urban.
func TestGoldenFigBlock(t *testing.T) {
	cfg := QuickConfig()
	cfg.Seed = 1
	points, err := ParallelSweep(cfg, Urban, SweepOptions{Workers: 1, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	RenderFigureTables(&b, points, 1, true)
	goldenCompare(t, "fig_block_quick.golden", b.String())
}

// TestGoldenOutageTable locks the resilience figure the same way the
// Fig 8/9/12/13 table block is locked: the full OutageSweep grid for QuickConfig
// at seed 1, urban. Disruption-compilation or table-rendering drift fails
// here before it corrupts the resilience artefact.
func TestGoldenOutageTable(t *testing.T) {
	cfg := QuickConfig()
	cfg.Seed = 1
	points, err := OutageSweep(cfg, Urban, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "outage_table_quick.golden", OutageTable(points))
}
