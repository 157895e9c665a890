package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// helperSep separates arguments inside EXPSWEEP_HELPER_ARGS; environment
// variables cannot carry NUL, and 0x1f never appears in expsweep flags.
const helperSep = "\x1f"

// TestMain doubles as an expsweep re-exec hook: when EXPSWEEP_HELPER_ARGS is
// set the test binary behaves exactly like the expsweep CLI with those
// arguments. The multi-process tests use it to spawn real coordinator and
// worker processes without a prebuilt binary.
func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv("EXPSWEEP_HELPER_ARGS"); ok {
		if err := run(strings.Split(raw, helperSep)); err != nil {
			fmt.Fprintln(os.Stderr, "expsweep:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// expsweepCmd builds a subprocess that re-executes this test binary as
// expsweep with the given arguments. The context kills it on timeout.
func expsweepCmd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "EXPSWEEP_HELPER_ARGS="+strings.Join(args, helperSep))
	return cmd
}

// runExpsweep runs expsweep to completion in a subprocess and returns its
// stdout and stderr, failing the test if it exits non-zero.
func runExpsweep(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := expsweepCmd(ctx, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("expsweep %v: %v\nstderr:\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestFlagValidation covers the wire-mode flags: -serve and -connect need one
// -env, exclude each other and the in-process-only flags, and the farm knobs
// that the lease defaults replaced are no longer accepted.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"serve and connect", []string{"-env", "urban", "-serve", "x:1", "-connect", "y:1"}, "exclusive"},
		{"serve both envs", []string{"-serve", "x:1"}, "ambiguous over the wire"},
		{"connect both envs", []string{"-connect", "y:1"}, "ambiguous over the wire"},
		{"serve non-figure sweep", []string{"-fig", "resilience", "-env", "urban", "-serve", "x:1"}, "figure sweeps (figs 8/9/12/13)"},
		{"connect with listen", []string{"-connect", "y:1", "-env", "urban", "-listen", ":0"}, "-listen (observability) belongs"},
		{"connect with progress", []string{"-connect", "y:1", "-env", "urban", "-progress"}, "-progress belongs"},
		{"serve with trace", []string{"-serve", "x:1", "-env", "urban", "-trace", "t.jsonl"}, "-trace would stay empty"},
		{"removed workers flag", []string{"-workers", "4"}, "flag provided but not defined: -workers"},
		{"removed attempts flag", []string{"-attempts", "3"}, "flag provided but not defined: -attempts"},
		{"removed inflight flag", []string{"-inflight", "2"}, "flag provided but not defined: -inflight"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseEnvs(t *testing.T) {
	if envs, err := parseEnvs("both"); err != nil || len(envs) != 2 {
		t.Fatalf("both: %v %v", envs, err)
	}
	if envs, err := parseEnvs("urban"); err != nil || len(envs) != 1 {
		t.Fatalf("urban: %v %v", envs, err)
	}
	if envs, err := parseEnvs("rural"); err != nil || len(envs) != 1 {
		t.Fatalf("rural: %v %v", envs, err)
	}
	if _, err := parseEnvs("mars"); err == nil {
		t.Fatal("mars: want error")
	}
}

func TestWorkerName(t *testing.T) {
	if workerName("") != "store" || workerName("w3") != "w3" {
		t.Fatal("workerName mapping broken")
	}
}

// TestRunQuickSweep drives the in-process executor end to end through the
// CLI, for the figure grid and the resilience sweep alike: a quick urban
// sweep with a store, run twice, so both the compute path and the
// load-from-store path execute. The second run must load every cell and
// print byte-identical tables.
func TestRunQuickSweep(t *testing.T) {
	for _, tc := range []struct {
		fig   string
		cells int
	}{{"8", 21}, {"resilience", 15}} {
		t.Run(tc.fig, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store")
			args := []string{"-fig", tc.fig, "-quick", "-env", "urban", "-seed", "1",
				"-parallel", "4", "-quiet", "-store", store}
			first, firstLog := runExpsweep(t, args...)
			if !strings.Contains(first, "gateways") {
				t.Fatalf("first run printed no tables:\n%s", first)
			}
			if want := fmt.Sprintf("0 loaded, %d simulated and persisted", tc.cells); !strings.Contains(firstLog, want) {
				t.Errorf("first run stderr lacks %q:\n%s", want, firstLog)
			}
			second, secondLog := runExpsweep(t, args...)
			if second != first {
				t.Fatalf("store-loaded run's tables differ\ngot:\n%s\nwant:\n%s", second, first)
			}
			if want := fmt.Sprintf("%d loaded, 0 simulated", tc.cells); !strings.Contains(secondLog, want) {
				t.Errorf("second run stderr lacks %q:\n%s", want, secondLog)
			}
		})
	}
}

var serveAddrRe = regexp.MustCompile(` on (127\.0\.0\.1:\d+) \(`)

// startServe launches an expsweep -serve subprocess, waits for it to
// announce its listen address on stderr, and returns the address, the stdout
// buffer the tables will land in, and a channel of its remaining stderr
// lines (closed when the process's stderr reaches EOF).
func startServe(ctx context.Context, t *testing.T, args []string) (*exec.Cmd, string, *bytes.Buffer, <-chan string) {
	t.Helper()
	cmd := expsweepCmd(ctx, args...)
	var tables bytes.Buffer
	cmd.Stdout = &tables
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 1024)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				cmd.Wait()
				t.Fatal("coordinator exited before announcing its address")
			}
			if m := serveAddrRe.FindStringSubmatch(line); m != nil {
				return cmd, m[1], &tables, lines
			}
		case <-ctx.Done():
			t.Fatal("timed out waiting for the coordinator to announce its address")
		}
	}
}

// TestServeSurvivesWorkerKill is the multi-process supervision proof: a
// -serve coordinator and two -connect worker processes over loopback TCP,
// one worker SIGKILLed mid-sweep. The coordinator must finish the sweep on
// the surviving worker (expired leases re-queue the dead worker's cells)
// and print tables byte-identical to the in-process pool's. A second
// serve+worker round over the same store must then recover every cell and
// print the same bytes again.
func TestServeSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep is slow; skipped in -short")
	}
	base := []string{"-fig", "8", "-quick", "-env", "urban", "-seed", "1", "-reps", "1"}
	want, _ := runExpsweep(t, append(append([]string{}, base...), "-parallel", "4", "-quiet")...)

	store := filepath.Join(t.TempDir(), "store")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Short lease TTL so the killed worker's in-flight cells re-queue
	// quickly instead of waiting out the default 30s.
	serveArgs := append(append([]string{}, base...),
		"-store", store, "-serve", "127.0.0.1:0", "-lease-ttl", "2s", "-drain", "2s")
	serve, addr, tables, lines := startServe(ctx, t, serveArgs)

	workerCmd := func(id string) *exec.Cmd {
		args := append(append([]string{}, base...),
			"-store", store, "-connect", addr, "-id", id, "-giveup", "30s", "-parallel", "2")
		return expsweepCmd(ctx, args...)
	}
	victim := workerCmd("wa")
	victim.Stdout, victim.Stderr = io.Discard, io.Discard
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Wait() // reaps the SIGKILL; its error is the point
	survivor := workerCmd("wb")
	var survivorLog bytes.Buffer
	survivor.Stdout, survivor.Stderr = io.Discard, &survivorLog
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}

	// Watch the coordinator's per-cell lines; the first one attributed to
	// wa proves it is actively computing — kill it there, mid-sweep.
	killed := false
	var serveLog strings.Builder
	for line := range lines {
		serveLog.WriteString(line + "\n")
		if !killed && strings.Contains(line, "(wa)") {
			killed = true
			if err := victim.Process.Kill(); err != nil {
				t.Fatalf("killing worker wa: %v", err)
			}
		}
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("coordinator failed: %v\nstderr:\n%s", err, serveLog.String())
	}
	if !killed {
		t.Fatalf("never saw a cell completed by wa, so nothing was killed mid-sweep\nstderr:\n%s", serveLog.String())
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("surviving worker failed: %v\nstderr:\n%s", err, survivorLog.String())
	}
	if got := tables.String(); got != want {
		t.Errorf("tables after worker kill differ from the in-process pool's\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Store-resumed round: a fresh coordinator over the same store must
	// recover every cell and print the same tables again.
	resumeArgs := append(append([]string{}, base...),
		"-store", store, "-serve", "127.0.0.1:0", "-drain", "5s")
	serve2, addr2, tables2, lines2 := startServe(ctx, t, resumeArgs)
	w := expsweepCmd(ctx, append(append([]string{}, base...),
		"-store", store, "-connect", addr2, "-id", "wc", "-giveup", "30s")...)
	var wLog bytes.Buffer
	w.Stdout, w.Stderr = io.Discard, &wLog
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	var resumeLog strings.Builder
	for line := range lines2 {
		resumeLog.WriteString(line + "\n")
	}
	if err := serve2.Wait(); err != nil {
		t.Fatalf("resumed coordinator failed: %v\nstderr:\n%s", err, resumeLog.String())
	}
	if err := w.Wait(); err != nil {
		t.Fatalf("resume worker failed: %v\nstderr:\n%s", err, wLog.String())
	}
	if got := tables2.String(); got != want {
		t.Errorf("store-resumed tables differ from the in-process pool's\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(resumeLog.String(), "21 recovered, 0 computed by remote workers") {
		t.Errorf("resumed coordinator did not recover every cell\nstderr:\n%s", resumeLog.String())
	}
}
