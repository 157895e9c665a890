package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
)

// provenance records where and how a run was measured.
type provenance struct {
	Commit     string            `json:"commit,omitempty"`
	Modified   bool              `json:"modified,omitempty"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      int               `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Passes     int               `json:"passes"`
	Setups     int               `json:"setup_passes"`
	Env        map[string]string `json:"env,omitempty"`
}

func newProvenance(workload string, procs int, seed uint64, trace int, seconds float64, passes, setups int) provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Seconds:    seconds,
		Passes:     passes,
		Setups:     setups,
	}
	// The commit is stamped by the go command when the source is a git
	// checkout; elsewhere it is absent.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	// These move the allocation and GC numbers.
	for _, k := range []string{"GOGC", "GOMEMLIMIT", "GODEBUG"} {
		if v, ok := os.LookupEnv(k); ok {
			if p.Env == nil {
				p.Env = map[string]string{}
			}
			p.Env[k] = v
		}
	}
	return p
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rtStats are cumulative runtime counters.
type rtStats struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU                         float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
}

// sub returns the counters accumulated since b.
func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{
		allocBytes: a.allocBytes - b.allocBytes,
		mallocs:    a.mallocs - b.mallocs,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}
