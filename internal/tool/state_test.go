package tool

import (
	"bytes"
	"context"
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
	opts.SkipNodes = []string{"vdd"}

	st := CaptureState(c, opts)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}

	c2, _ := netlist.Parse(paramTank)
	opts2 := DefaultOptions()
	if err := loaded.Apply(c2, &opts2, true); err != nil {
		t.Fatal(err)
	}
	if opts2.FStart != 1e4 || opts2.FStop != 1e8 || opts2.PointsPerDecade != 25 ||
		len(opts2.SkipNodes) != 1 {
		t.Errorf("options not restored: %+v", opts2)
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
func TestStateLegacyNaiveFieldLoads(t *testing.T) {
	st, err := LoadState(strings.NewReader(`{"version": 1, "fstart_hz": 1e4, "fstop_hz": 1e8,
		"points_per_decade": 25, "loop_tol": 0.1, "workers": 2, "naive": true}`))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	if err := st.Apply(nil, &opts, false); err != nil {
		t.Fatal(err)
	}
	if opts.FStart != 1e4 || opts.FStop != 1e8 || opts.PointsPerDecade != 25 {
		t.Errorf("options not restored: %+v", opts)
	}
}

func TestStateVariableOverrideReevaluates(t *testing.T) {
	c, _ := netlist.Parse(paramTank)
	st := CaptureState(c, DefaultOptions())
	st.Variables["rval"] = 2000
	opts := DefaultOptions()
	if err := st.Apply(c, &opts, true); err != nil {
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

// TestCloneForOverrideKeepsDeck: a corner, temperature, sweep or Monte
// Carlo run analyses the same deck as the plain run — .nodeset, options
// and models included — and its overrides never reach the caller's
// circuit.
func TestCloneForOverrideKeepsDeck(t *testing.T) {
	c, err := netlist.Parse(paramTank + ".nodeset v(t)=0.5\n.option gmin=1e-12\n")
	if err != nil {
		t.Fatal(err)
	}
	mod := cloneForOverride(c)
	mod.Params["rval"] = 2000
	mod.Temp = 85
	if c.Params["rval"] != 500 || c.Temp != 27 {
		t.Errorf("override reached the source circuit: rval=%g temp=%g", c.Params["rval"], c.Temp)
	}
	if !reflect.DeepEqual(mod.NodeSet, c.NodeSet) || len(mod.NodeSet) != 1 {
		t.Errorf("nodeset = %v, want %v", mod.NodeSet, c.NodeSet)
	}
	if !reflect.DeepEqual(mod.Options, c.Options) || len(mod.Elems) != len(c.Elems) {
		t.Errorf("clone dropped options or elements: %v, %d elements", mod.Options, len(mod.Elems))
	}
}

func TestStateErrors(t *testing.T) {
	if _, err := LoadState(strings.NewReader("not json")); err == nil {
		t.Error("bad json should fail")
	}
	if _, err := LoadState(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version should fail")
	}
	c, _ := netlist.Parse(paramTank)
	st := CaptureState(c, DefaultOptions())
	st.Variables["bogus"] = 1
	opts := DefaultOptions()
	if err := st.Apply(c, &opts, true); err == nil {
		t.Error("unknown variable should fail")
	}
}

func TestRunParamSweep(t *testing.T) {
	c, err := netlist.Parse(paramTank)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.FStart, opts.FStop = 1e4, 1e8
	points, err := RunParamSweep(context.Background(), c, opts, "rval", []float64{2000, 500, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 || points[0].Value != 500 || points[2].Value != 2000 {
		t.Fatalf("points not sorted: %+v", points)
	}
	var peaks []float64
	for _, p := range points {
		if p.Err != nil {
			t.Fatalf("%g: %v", p.Value, p.Err)
		}
		w := WorstLoop(p.Report)
		if w == nil {
			t.Fatalf("%g: no loop", p.Value)
		}
		peaks = append(peaks, w.WorstPeak)
	}
	// Larger R -> lighter damping -> deeper peak: strictly decreasing.
	if !(peaks[0] > peaks[1] && peaks[1] > peaks[2]) {
		t.Errorf("peaks not monotone with rval: %v", peaks)
	}
	if _, err := RunParamSweep(context.Background(), c, opts, "nosuch", []float64{1}); err == nil {
		t.Error("unknown param should fail")
	}
	if c.Params["rval"] != 500 {
		t.Error("sweep mutated source circuit")
	}
}
