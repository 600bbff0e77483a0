package tool

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"acstab/internal/circuits"
	"acstab/internal/stab"
)

func TestResolveDefaults(t *testing.T) {
	opts, err := (Options{}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	if opts.FStart != def.FStart || opts.FStop != def.FStop ||
		opts.PointsPerDecade != def.PointsPerDecade || opts.LoopTol != def.LoopTol {
		t.Errorf("zero options did not take defaults: %+v", opts)
	}
	if opts.RefinePointsPerDecade != 0 || opts.RefineThreshold != 0 {
		t.Errorf("a uniform run got adaptive defaults: %+v", opts)
	}
	// Explicit values pass through.
	opts, err = (Options{FStart: 10, FStop: 1e6, PointsPerDecade: 7,
		SkipNodes: []string{"x"}}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opts.FStart != 10 || opts.FStop != 1e6 || opts.PointsPerDecade != 7 ||
		len(opts.SkipNodes) != 1 {
		t.Errorf("explicit options mangled: %+v", opts)
	}
	// Resolving resolved options changes nothing.
	adaptive := Options{CoarsePointsPerDecade: 8}
	once, err := adaptive.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Resolve()
	if err != nil || twice.RefinePointsPerDecade != once.RefinePointsPerDecade ||
		twice.RefineThreshold != once.RefineThreshold {
		t.Errorf("Resolve not idempotent: %+v, then %+v (%v)", once, twice, err)
	}
}

// TestResolvePPDCap: the points-per-decade cap is inclusive, and options
// at it build a Tool.
func TestResolvePPDCap(t *testing.T) {
	opts, err := (Options{PointsPerDecade: MaxPointsPerDecade}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(circuits.SecondOrder(0.3, 1e6), opts); err != nil {
		t.Errorf("tool rejects the largest ppd: %v", err)
	}
}

// TestResolveRejectionMessages pins the wording of range rejections:
// every knob that accepts 0 as "default" must say ">= 0" — the
// fstart_hz/fstop_hz messages used to claim "must be > 0" while the
// check only rejected negatives, telling a caller who sent a legal 0
// that their request was invalid.
func TestResolveRejectionMessages(t *testing.T) {
	for _, in := range []Options{
		{FStart: -1},
		{FStop: -1},
		{PointsPerDecade: -1},
		{LoopTol: -0.1},
	} {
		_, err := in.Resolve()
		if err == nil {
			t.Fatalf("%+v: no error", in)
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("%+v: err = %v, want *FieldError", in, err)
		}
		if !strings.Contains(fe.Reason, "must be >= 0") {
			t.Errorf("%s: message %q does not say \"must be >= 0\"", fe.Field, fe.Reason)
		}
	}
}

func TestResolveFieldErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    Options
		field string
	}{
		{"negative fstart", Options{FStart: -1}, "fstart_hz"},
		{"negative fstop", Options{FStop: -1}, "fstop_hz"},
		{"inverted range", Options{FStart: 1e6, FStop: 10}, "fstop_hz"},
		{"negative ppd", Options{PointsPerDecade: -1}, "points_per_decade"},
		{"ppd 1e9", Options{PointsPerDecade: 1e9}, "points_per_decade"},
		{"ppd above the cap", Options{PointsPerDecade: MaxPointsPerDecade + 1}, "points_per_decade"},
		{"negative loop_tol", Options{LoopTol: -0.1}, "loop_tol"},
		{"refine without coarse", Options{RefinePointsPerDecade: 80}, "refine_points_per_decade"},
		{"threshold without coarse", Options{RefineThreshold: 2}, "refine_threshold"},
		{"refine above the cap", Options{CoarsePointsPerDecade: 10, RefinePointsPerDecade: MaxPointsPerDecade + 1},
			"refine_points_per_decade"},
	} {
		_, err := tc.in.Resolve()
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want *FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, fe.Field, tc.field)
		}
	}
}

// TestResolveRejectsNonFinite: NaN and infinite values are refused by
// the option they sit in.
func TestResolveRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		in    Options
		field string
	}{
		{Options{FStart: nan}, "fstart_hz"},
		{Options{FStop: nan}, "fstop_hz"},
		{Options{FStop: math.Inf(1)}, "fstop_hz"},
		{Options{FStart: math.Inf(1)}, "fstop_hz"},
		{Options{CoarsePointsPerDecade: 8, RefineThreshold: nan}, "refine_threshold"},
		{Options{LoopTol: nan}, "loop_tol"},
	} {
		_, err := tc.in.Resolve()
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%+v: err = %v, want a *FieldError on %s", tc.in, err, tc.field)
		}
	}
}

// TestResolveZeroStabIsDefault: a zero Stab resolves to
// stab.DefaultOptions(), so a Tool built from an Options literal runs
// the min/max peak filter exactly as DefaultOptions does.
func TestResolveZeroStabIsDefault(t *testing.T) {
	opts, err := (Options{}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Stab != stab.DefaultOptions() {
		t.Errorf("zero Stab resolved to %+v, want %+v", opts.Stab, stab.DefaultOptions())
	}
	off := Options{Stab: stab.Options{MinPeakDepth: -1}}
	if opts, err = off.Resolve(); err != nil || opts.Stab != off.Stab {
		t.Errorf("a set Stab resolved to %+v (%v), want it kept", opts.Stab, err)
	}
	ckt := circuits.RCLadder(20)
	def := DefaultOptions()
	def.AutoZeroAC = false
	reports := map[string]*Report{}
	for name, o := range map[string]Options{"literal": {}, "default": def} {
		tl, err := New(ckt, o)
		if err != nil {
			t.Fatal(err)
		}
		if reports[name], err = tl.AllNodes(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	lit, want := reports["literal"], reports["default"]
	if len(lit.Loops) != len(want.Loops) || len(lit.Nodes) != len(want.Nodes) {
		t.Fatalf("literal options: %d loops over %d nodes, DefaultOptions: %d over %d",
			len(lit.Loops), len(lit.Nodes), len(want.Loops), len(want.Nodes))
	}
	for i, n := range lit.Nodes {
		w := want.Nodes[i]
		if (n.Best == nil) != (w.Best == nil) || n.Best != nil && (n.Best.Type != w.Best.Type || n.Best.Value != w.Best.Value) {
			t.Errorf("node %s: literal options give %+v, DefaultOptions %+v", n.Node, n.Best, w.Best)
		}
	}
}
