// Command mlorasim runs one MLoRa-SS simulation scenario and prints its
// report: delivery, delay, hops, overhead and channel statistics.
//
// Usage:
//
//	mlorasim -scheme robc -env rural -gateways 20 -duration 24h -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mlorass"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mlorasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mlorasim", flag.ContinueOnError)
	var (
		schemeName = fs.String("scheme", "norouting", "forwarding scheme: norouting | rcaetx | robc")
		envName    = fs.String("env", "urban", "environment: urban (0.5 km d2d) | rural (1 km d2d)")
		gateways   = fs.Int("gateways", 0, "gateway count in the scaled world (default from config)")
		duration   = fs.Duration("duration", 0, "simulated horizon (default 24h)")
		seed       = fs.Uint64("seed", 1, "random seed")
		classQA    = fs.Bool("queue-class-a", false, "use Queue-based Class-A instead of Modified Class-C")
		quick      = fs.Bool("quick", false, "use the reduced-scale quick scenario")
		alpha      = fs.Float64("alpha", 0, "RCA-ETX EWMA weight (default 0.5)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := mlorass.DefaultConfig()
	if *quick {
		cfg = mlorass.QuickConfig()
	}
	cfg.Seed = *seed
	switch strings.ToLower(*schemeName) {
	case "norouting", "lorawan":
		cfg.Scheme = mlorass.SchemeNoRouting
	case "rcaetx", "rca-etx":
		cfg.Scheme = mlorass.SchemeRCAETX
	case "robc":
		cfg.Scheme = mlorass.SchemeROBC
	default:
		return fmt.Errorf("unknown scheme %q", *schemeName)
	}
	switch strings.ToLower(*envName) {
	case "urban":
		cfg.Environment = mlorass.Urban
	case "rural":
		cfg.Environment = mlorass.Rural
	default:
		return fmt.Errorf("unknown environment %q", *envName)
	}
	if *gateways > 0 {
		cfg.NumGateways = *gateways
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *classQA {
		cfg.Class = mlorass.ClassQueueA
	}
	if *alpha != 0 {
		cfg.Alpha = *alpha
	}

	start := time.Now()
	res, err := mlorass.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	fmt.Printf("  (wall time %s)\n", time.Since(start).Round(time.Millisecond))
	return nil
}
