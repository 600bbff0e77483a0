package tool

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"acstab/internal/netlist"
)

const paramTank = `param tank
.param rval=500
R1 t 0 {rval}
L1 t 0 25.33u
C1 t 0 1n
`

func TestStateRoundTrip(t *testing.T) {
	c, err := netlist.Parse(paramTank)
	if err != nil {
		t.Fatal(err)
	}
	c.Temp = 85
	opts := DefaultOptions()
	opts.FStart, opts.FStop = 1e4, 1e8
	opts.PointsPerDecade = 25
	opts.CoarsePointsPerDecade, opts.RefinePointsPerDecade, opts.RefineThreshold = 10, 320, 0.6
	opts.SkipNodes = []string{"vdd"}
	opts.OnlySubckt = "x1"

	st := CaptureState(c, opts)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Every setup key of the file wins over the base options.
	base := DefaultOptions()
	base.SkipNodes = []string{"gnd", "vss"}
	loaded, err := LoadState(&buf, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Options, opts) {
		t.Errorf("options not restored:\n got %+v\nwant %+v", loaded.Options, opts)
	}
	if base.SkipNodes[0] != "gnd" {
		t.Errorf("loading reused the base's skip list: %v", base.SkipNodes)
	}

	c2, _ := netlist.Parse(paramTank)
	if err := loaded.Apply(c2); err != nil {
		t.Fatal(err)
	}
	if c2.Temp != 85 {
		t.Errorf("temp not restored: %g", c2.Temp)
	}
	if c2.Params["rval"] != 500 {
		t.Errorf("variables not restored: %v", c2.Params)
	}
}

// TestStateLegacyNaiveFieldLoads pins state-file compatibility: files
// saved while the tool still had a naive per-node sweep mode carry
// "naive": true, and files saved while it still had a sweep worker count
// carry "workers"; both must keep loading now that the settings are gone.
// Keys such an old file lacks keep the base options' values.
func TestStateLegacyNaiveFieldLoads(t *testing.T) {
	base := DefaultOptions()
	base.OnlySubckt = "x1"
	st, err := LoadState(strings.NewReader(`{"version": 1, "fstart_hz": 1e4, "fstop_hz": 1e8,
		"points_per_decade": 25, "loop_tol": 0.1, "workers": 2, "naive": true}`), base)
	if err != nil {
		t.Fatal(err)
	}
	opts := st.Options
	if opts.FStart != 1e4 || opts.FStop != 1e8 || opts.PointsPerDecade != 25 || opts.LoopTol != 0.1 ||
		opts.OnlySubckt != "x1" {
		t.Errorf("options not restored: %+v", opts)
	}
}

func TestStateVariableOverrideReevaluates(t *testing.T) {
	c, _ := netlist.Parse(paramTank)
	st := CaptureState(c, DefaultOptions())
	st.Variables["rval"] = 2000
	if err := st.Apply(c); err != nil {
		t.Fatal(err)
	}
	flat, err := netlist.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Element("r1").Value != 2000 {
		t.Errorf("element not re-evaluated: %g", flat.Element("r1").Value)
	}
}

func TestStateErrors(t *testing.T) {
	if _, err := LoadState(strings.NewReader("not json"), DefaultOptions()); err == nil {
		t.Error("bad json should fail")
	}
	if _, err := LoadState(strings.NewReader(`{"version": 99}`), DefaultOptions()); err == nil {
		t.Error("wrong version should fail")
	}
	c, _ := netlist.Parse(paramTank)
	st := CaptureState(c, DefaultOptions())
	st.Variables["bogus"] = 1
	if err := st.Apply(c); err == nil {
		t.Error("unknown variable should fail")
	}
}
