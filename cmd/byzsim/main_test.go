package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"byzshield"
	"byzshield/internal/experiments"
	"byzshield/internal/wire"
)

func parse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseOptions(args, io.Discard)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return o
}

// modes is one command line per mode, with no other flag set.
var modes = [][]string{
	{"-table", "3"}, {"-scheme", "mols"}, {"-ablation"}, {"-show"},
	{"-faults"}, {"-detect"}, {"-figure", "2"}, {"-figure", "all"}, {"-figure", "12"},
}

// TestModeDefaults pins every mode's defaults to what the tool that
// first ran it used: Figures 2–11 DefaultTrainOpts (300 rounds, seed
// 42, 10 s budget); -faults and -detect 100 rounds; Figure 12 20 rounds
// at Dim 64 and TestN 200; the tables a 60 s budget and placement seed 7.
func TestModeDefaults(t *testing.T) {
	def := experiments.DefaultTrainOpts()
	sweep := def
	sweep.Spec.Rounds = 100
	fig12 := def
	fig12.Spec.Rounds, fig12.Spec.Dim, fig12.Spec.TestN = 20, 64, 200
	for _, args := range modes {
		o := parse(t, args...)
		if want := "-" + o.mode; want != args[0] {
			t.Errorf("%v: mode %q", args, o.mode)
		}
		switch o.mode {
		case "table", "scheme", "ablation":
			if o.train.SearchBudget != time.Minute {
				t.Errorf("%v: budget %v, want 1m", args, o.train.SearchBudget)
			}
			want := byzshield.SchemeParams{L: 5, R: 3, K: 15, F: 0, Seed: 7}
			if o.params != want || o.qmin != 1 || o.qmax != 5 {
				t.Errorf("%v: params %+v q %d..%d, want %+v q 1..5", args, o.params, o.qmin, o.qmax, want)
			}
			continue
		case "show":
			if o.params.L != 5 || o.params.R != 3 {
				t.Errorf("-show: params %+v, want l=5 r=3", o.params)
			}
			continue
		}
		want := def
		switch {
		case o.mode == "faults" || o.mode == "detect":
			want = sweep
		case o.arg == "12":
			want = fig12
		}
		if !reflect.DeepEqual(o.train, want) {
			t.Errorf("%v: TrainOpts\n got %+v\nwant %+v", args, o.train, want)
		}
	}
}

// TestSetFlagsWin checks that a flag the user sets overrides every
// mode's default, zero values included.
func TestSetFlagsWin(t *testing.T) {
	for _, args := range modes {
		o := parse(t, append(args, "-seed", "0", "-iters", "7", "-budget", "3s", "-dim", "9", "-uplink", "int8")...)
		s := o.train.Spec
		if s.Seed != 0 || s.DataSeed != 0 || o.params.Seed != 0 {
			t.Errorf("%v: seed %d/%d, placement seed %d, want 0", args, s.Seed, s.DataSeed, o.params.Seed)
		}
		if s.Rounds != 7 || s.Dim != 9 || o.train.SearchBudget != 3*time.Second {
			t.Errorf("%v: rounds %d dim %d budget %v, want 7, 9, 3s", args, s.Rounds, s.Dim, o.train.SearchBudget)
		}
		if o.train.Uplink != wire.TierInt8 {
			t.Errorf("%v: uplink %v, want int8", args, o.train.Uplink)
		}
	}
}

// TestOneMode checks that zero or several mode flags are a usage error
// rather than one mode silently winning.
func TestOneMode(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-faults", "-detect"},
		{"-table", "3", "-scheme", "mols"},
		{"-ablation", "-figure", "9"},
		{"-show", "-faults=true", "-csv"},
	} {
		_, err := parseOptions(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "exactly one mode flag") {
			t.Errorf("%v: err = %v, want a one-mode usage error", args, err)
		}
	}
	// A mode flag set to its zero value is no mode.
	if o := parse(t, "-faults=false", "-table", "3"); o.mode != "table" {
		t.Errorf("-faults=false -table 3: mode %q", o.mode)
	}
	if _, err := parseOptions([]string{"-figure", "2", "-uplink", "delta"}, io.Discard); err == nil {
		t.Error("-uplink delta accepted")
	}
}
