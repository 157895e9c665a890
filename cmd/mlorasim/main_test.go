package main

import (
	"os"
	"strings"
	"testing"
)

// TestFlagErrors checks that bad flag values exit with a named error before
// any report is printed. Any non-zero -alpha, including NaN, ±Inf and
// negatives, must reach Config.Validate and be rejected there rather than
// silently replaced by the default.
func TestFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"NaN alpha", []string{"-quick", "-alpha", "NaN"}, "Alpha NaN must be finite"},
		{"Inf alpha", []string{"-quick", "-alpha", "+Inf"}, "Alpha +Inf must be finite"},
		{"alpha above 1", []string{"-quick", "-alpha", "2"}, "alpha 2 outside (0, 1]"},
		{"negative alpha", []string{"-quick", "-alpha", "-0.5"}, "alpha -0.5 outside (0, 1]"},
		{"unknown scheme", []string{"-scheme", "flood"}, `unknown scheme "flood"`},
		{"unknown env", []string{"-env", "ocean"}, `unknown environment "ocean"`},
	}
	old := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	defer func() { os.Stdout = old }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want it to contain %q", tc.args, err, tc.want)
			}
		})
	}
}
