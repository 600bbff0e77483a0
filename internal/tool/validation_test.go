package tool

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"acstab/internal/analysis"
	"acstab/internal/circuits"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/num"
)

// Property: on randomly generated resonant circuits, the zeta and natural
// frequency the stability-plot method reads off a node response match the
// exact dominant eigenvalues of the linearized MNA system. This is the
// method's core claim validated against ground truth, not against itself.
func TestMethodVsExactPolesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Restrict to the range where loops are dangerous enough to matter
		// (the paper's use case): above ~zeta 0.5 the peak grows broad and
		// nearby real poles bias the read-off by >8 %.
		zeta := 0.12 + 0.33*rng.Float64()
		fn := math.Pow(10, 5+3*rng.Float64()) // 100 kHz .. 100 MHz

		// Random two-pole gm loop, plus one or two bystander RC sections
		// to add real poles the method must reject.
		c := netlist.NewCircuit("random loop")
		k := 1/(zeta*zeta) - 1
		r := 5e3 + 10e3*rng.Float64()
		rc := math.Sqrt(1+k) / (2 * math.Pi * fn)
		c.AddR("RA", "a", "0", r)
		c.AddC("CA", "a", "0", rc/r)
		c.AddR("RB", "b", "0", r)
		c.AddC("CB", "b", "0", rc/r)
		gm := math.Sqrt(k) / r
		c.AddG("GF", "0", "b", "a", "0", gm)
		c.AddG("GR", "a", "0", "b", "0", gm)
		for i := 0; i < 1+rng.Intn(2); i++ {
			name := string(rune('p' + i))
			fp := fn * math.Pow(10, 1.0+rng.Float64())
			rp := 1e3
			c.AddR("RP"+name, "a", name, rp)
			c.AddC("CP"+name, name, "0", 1/(2*math.Pi*fp*rp))
		}

		// Exact poles.
		flat, err := netlist.Flatten(c)
		if err != nil {
			return false
		}
		sys, err := mna.Compile(flat)
		if err != nil {
			return false
		}
		sim := analysis.New(sys)
		op, err := sim.OP(context.Background())
		if err != nil {
			return false
		}
		poles, err := sim.Poles(context.Background(), op, fn/100, fn*100)
		if err != nil {
			return false
		}
		var exact *analysis.Pole
		for _, p := range analysis.ComplexPolePairs(poles, 1e-6) {
			pp := p
			if exact == nil || pp.Zeta < exact.Zeta {
				exact = &pp
			}
		}
		if exact == nil {
			return false
		}

		// Method estimate at a loop node.
		opts := DefaultOptions()
		opts.FStart, opts.FStop = fn/300, fn*300
		tl, err := New(c, opts)
		if err != nil {
			return false
		}
		nr, err := tl.SingleNode(context.Background(), "a")
		if err != nil || nr.Best == nil {
			return false
		}
		return num.ApproxEqual(nr.Best.Freq, exact.FreqHz, 0.03, 0) &&
			num.ApproxEqual(nr.Best.Zeta, exact.Zeta, 0.08, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestGridLimits: options that would ask for an unaffordable grid are
// refused, and a first pass of more (node, frequency) pairs than
// maxSweepEntries fails before any grid or column is allocated and
// without replacing the process-wide axis. Only refused sizes are tried.
func TestGridLimits(t *testing.T) {
	base := DefaultOptions()
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"ppd 1e9", func(o *Options) { o.PointsPerDecade = 1e9 }},
		{"ppd above the cap", func(o *Options) { o.PointsPerDecade = MaxPointsPerDecade + 1 }},
		{"NaN fstart", func(o *Options) { o.FStart = math.NaN() }},
		{"NaN fstop", func(o *Options) { o.FStop = math.NaN() }},
		{"infinite fstop", func(o *Options) { o.FStop = math.Inf(1) }},
	} {
		opts := base
		tc.edit(&opts)
		if _, err := New(circuits.SecondOrder(0.3, 1e6), opts); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, opts)
		}
	}
	opts := base
	opts.PointsPerDecade = MaxPointsPerDecade
	if _, err := New(circuits.SecondOrder(0.3, 1e6), opts); err != nil {
		t.Errorf("ppd at the cap: %v", err)
	}

	ctx := context.Background()
	wide := base
	wide.FStart, wide.FStop, wide.PointsPerDecade = 1e-300, 1e300, MaxPointsPerDecade
	dense := base
	dense.PointsPerDecade = MaxPointsPerDecade
	for _, tc := range []struct {
		name string
		ckt  *netlist.Circuit
		opts Options
		run  func(*Tool) error
	}{
		// 6e6 frequencies on one node.
		{"single node, wide range", circuits.SecondOrder(0.3, 1e6), wide, func(tl *Tool) error {
			_, err := tl.SingleNode(ctx, "t")
			return err
		}},
		// 81 nodes x 60001 frequencies.
		{"all nodes, dense grid", circuits.RCLadder(80), dense, func(tl *Tool) error {
			_, err := tl.AllNodes(ctx)
			return err
		}},
	} {
		tl, err := New(tc.ckt, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tl.ensureOP(ctx); err != nil {
			t.Fatal(err)
		}
		memo := lastAxis.Load()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = tc.run(tl)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("%s: err = %v, want the sweep-size refusal", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: the refused run allocated %d bytes", tc.name, grew)
		}
		if lastAxis.Load() != memo {
			t.Errorf("%s: the refused run replaced the shared axis", tc.name)
		}
	}
}
