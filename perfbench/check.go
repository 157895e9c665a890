package main

import (
	"fmt"

	"mlorass/internal/experiment"
)

// maxErrs caps how many failure messages a run keeps; every failure is
// still counted.
const maxErrs = 20

// checker counts output checks: each check is one attempted operation, each
// broken expectation one failed operation.
type checker struct {
	attempted, failed int
	errs              []string
	// refs holds the first output seen under each key; later outputs under
	// the same key must match it byte for byte.
	refs map[string]string
}

func newChecker() *checker { return &checker{refs: map[string]string{}} }

func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// result checks one Result's accounting invariants.
func (c *checker) result(key string, r *experiment.Result) {
	err := resultErr(r)
	c.expect(err == nil, "%s: %v", key, err)
}

// same checks that out matches the first output recorded under key.
func (c *checker) same(key, out string) {
	ref, ok := c.refs[key]
	if !ok {
		c.refs[key] = out
		ref = out
	}
	c.expect(out == ref, "%s: model output differs from the first %s run", key, key)
}

// resultErr reports the first accounting invariant r breaks: the Result's
// own totals must agree with its telemetry counters and with each other.
func resultErr(r *experiment.Result) error {
	if r == nil {
		return fmt.Errorf("missing result")
	}
	k := r.Telemetry.Counters
	delivered := uint64(r.Delivered)
	switch {
	case r.Generated != k.Generated:
		return fmt.Errorf("Generated %d != telemetry Generated %d", r.Generated, k.Generated)
	case delivered != k.ServerFresh:
		return fmt.Errorf("Delivered %d != telemetry ServerFresh %d", delivered, k.ServerFresh)
	case delivered != r.Delay.N():
		return fmt.Errorf("Delivered %d != delay samples %d", delivered, r.Delay.N())
	case r.Duplicates != k.ServerDuplicates:
		return fmt.Errorf("Duplicates %d != telemetry ServerDuplicates %d", r.Duplicates, k.ServerDuplicates)
	case delivered > r.Generated:
		return fmt.Errorf("Delivered %d > Generated %d", delivered, r.Generated)
	case r.HandoverSuccesses > r.HandoverAttempts:
		return fmt.Errorf("HandoverSuccesses %d > HandoverAttempts %d", r.HandoverSuccesses, r.HandoverAttempts)
	case r.Medium.Transmissions != k.FramesOnAir+r.Downlinks:
		return fmt.Errorf("medium transmissions %d != frames on air %d + downlinks %d",
			r.Medium.Transmissions, k.FramesOnAir, r.Downlinks)
	}
	return nil
}

// tally sums the model's outputs over one or more Results. Its printed form
// is the identity every pass of a workload must reproduce: a change meant
// only for speed leaves every field unchanged.
type tally struct {
	Generated, Delivered, Duplicates, QueueDrops                     uint64
	HandoverAttempts, HandoverSuccesses, HandoverLostMsgs, RelayHops uint64
	Frames, Transmissions, Receptions, Collisions                    uint64
	Downlinks, DownlinkDrops, AckTimeouts, Retransmissions, ADRCmds  uint64
	DelaySum, HopsSum                                                float64
}

func (t *tally) add(r *experiment.Result) {
	if r == nil {
		return
	}
	k := r.Telemetry.Counters
	t.Generated += r.Generated
	t.Delivered += uint64(r.Delivered)
	t.Duplicates += r.Duplicates
	t.QueueDrops += r.QueueDrops
	t.HandoverAttempts += r.HandoverAttempts
	t.HandoverSuccesses += r.HandoverSuccesses
	t.HandoverLostMsgs += r.HandoverLostMsgs
	t.RelayHops += k.RelayHops
	t.Frames += k.FramesOnAir
	t.Transmissions += r.Medium.Transmissions
	t.Receptions += r.Medium.Receptions
	t.Collisions += r.Medium.Collisions
	t.Downlinks += r.Downlinks
	t.DownlinkDrops += r.DownlinkDrops
	t.AckTimeouts += r.AckTimeouts
	t.Retransmissions += r.Retransmissions
	t.ADRCmds += r.ADRCommands
	t.DelaySum += r.Delay.Mean() * float64(r.Delay.N())
	t.HopsSum += r.Hops.Mean() * float64(r.Hops.N())
}

// String prints every field; %v formats floats in their shortest exact
// form, so equal strings mean bit-identical values.
func (t tally) String() string {
	type fields tally // drops the String method
	return fmt.Sprintf("%+v", fields(t))
}

// delayMean and hopsMean pool the per-result means over every delivery.
func (t tally) delayMean() float64 { return ratio(t.DelaySum, float64(t.Delivered)) }
func (t tally) hopsMean() float64  { return ratio(t.HopsSum, float64(t.Delivered)) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
