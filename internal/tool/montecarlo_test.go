package tool

import (
	"reflect"
	"testing"

	"acstab/internal/netlist"
)

func mcCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.Parse(`mc tank
.param rq=400 cq=1n
R1 t 0 {rq}
L1 t 0 25.33u
C1 t 0 {cq}
`)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMonteCarloDeterministic(t *testing.T) {
	spec := MCSpec{Runs: 5, Seed: 7, Sigma: map[string]float64{"rq": 0.1}}
	a, err := MonteCarlo(mcCircuit(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(mcCircuit(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 || !reflect.DeepEqual(a, b) {
		t.Fatalf("draws differ between two runs of one spec:\n%v\n%v", a, b)
	}
	for i, vars := range a {
		if len(vars) != 1 || vars["rq"] <= 0 || vars["rq"] == 400 {
			t.Errorf("draw %d = %v, want one rq varied around 400", i, vars)
		}
	}
}

// TestMonteCarloDrawsReproducible: with two or more sigmas the draws take
// the variables in sorted-name order, not map order, so one spec always
// draws the same samples.
func TestMonteCarloDrawsReproducible(t *testing.T) {
	c := mcCircuit(t)
	spec := MCSpec{Runs: 3, Seed: 1, Sigma: map[string]float64{"rq": 0.2, "cq": 0.05}}
	want, err := MonteCarlo(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := MonteCarlo(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: %v, want %v", i, got, want)
		}
	}
	if c.Params["rq"] != 400 || c.Params["cq"] != 1e-9 {
		t.Errorf("MonteCarlo changed the circuit: %v", c.Params)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	c := mcCircuit(t)
	if _, err := MonteCarlo(c, MCSpec{Runs: 0, Sigma: map[string]float64{"rq": 0.1}}); err == nil {
		t.Error("zero runs should fail")
	}
	if _, err := MonteCarlo(c, MCSpec{Runs: 1}); err == nil {
		t.Error("empty sigma should fail")
	}
	if _, err := MonteCarlo(c, MCSpec{Runs: 1, Sigma: map[string]float64{"zz": 0.1}}); err == nil {
		t.Error("unknown variable should fail")
	}
}
