package stab

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"acstab/internal/num"
	"acstab/internal/ratfn"
	"acstab/internal/wave"
)

// magOn samples |tf(j2πf)| on the given grid, taking fs as the wave's X.
func magOn(tf ratfn.TF, fs []float64) *wave.Wave {
	y := make([]float64, len(fs))
	for i, f := range fs {
		y[i] = tf.MagAt(2 * math.Pi * f)
	}
	return wave.NewReal("mag", fs, y)
}

// refinedGrid is a 10-point/decade log grid with the intervals between
// lo and hi bisected twice in log frequency — the non-uniform shape an
// adaptive sweep hands the stability plot.
func refinedGrid(lo, hi float64) []float64 {
	fs := num.LogGridPPD(1e3, 1e9, 10)
	for round := 0; round < 2; round++ {
		var out []float64
		for i, f := range fs {
			out = append(out, f)
			if i+1 < len(fs) && f >= lo && fs[i+1] <= hi {
				out = append(out, math.Sqrt(f*fs[i+1]))
			}
		}
		fs = out
	}
	return fs
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameWave fails unless got and want agree bit for bit: name,
// units, LogX and every sample.
func requireSameWave(t *testing.T, got, want *wave.Wave) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("plot is nil: got %v, want %v", got, want)
	}
	if got.Name != want.Name || got.XUnit != want.XUnit || got.YUnit != want.YUnit || got.LogX != want.LogX {
		t.Fatalf("plot %q %q %q %v, want %q %q %q %v", got.Name, got.XUnit, got.YUnit, got.LogX,
			want.Name, want.XUnit, want.YUnit, want.LogX)
	}
	if !slices.Equal(got.X, want.X) || len(got.Y) != len(want.Y) {
		t.Fatalf("plot axes differ: %d/%d vs %d/%d points", len(got.X), len(got.Y), len(want.X), len(want.Y))
	}
	for i := range want.Y {
		g, w := got.Y[i], want.Y[i]
		if !sameFloat(real(g), real(w)) || !sameFloat(imag(g), imag(w)) {
			t.Fatalf("plot[%d] = %v, want %v", i, g, w)
		}
	}
}

// requireWarmPlot fails unless the P scratch an's last Analyze of mag
// read its peaks from, and the wave a warm an.Plot(mag) builds from it,
// equal the one-shot Plot of mag bit for bit, the wave's X aliasing mag.X.
func requireWarmPlot(t *testing.T, an *Analyzer, mag *wave.Wave) {
	t.Helper()
	want, err := Plot(mag, an.opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.p) != len(want.Y) {
		t.Fatalf("P scratch has %d points, want %d", len(an.p), len(want.Y))
	}
	for i, w := range want.Y {
		if !sameFloat(an.p[i], real(w)) || !sameFloat(imag(w), 0) {
			t.Fatalf("P scratch[%d] = %v, want %v", i, an.p[i], w)
		}
	}
	got, err := an.Plot(mag)
	if err != nil {
		t.Fatal(err)
	}
	requireSameWave(t, got, want)
	if &got.X[0] != &mag.X[0] || len(got.X) != len(mag.X) {
		t.Fatal("plot X does not alias the magnitude's")
	}
}

// requireSameResult fails unless got and want agree bit for bit: every
// peak field, and which peak is dominant.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Peaks) != len(want.Peaks) {
		t.Fatalf("%d peaks, want %d", len(got.Peaks), len(want.Peaks))
	}
	for i, w := range want.Peaks {
		g := got.Peaks[i]
		if !sameFloat(g.Freq, w.Freq) || !sameFloat(g.Value, w.Value) || g.Type != w.Type || g.IsZero != w.IsZero ||
			!sameFloat(g.Zeta, w.Zeta) || !sameFloat(g.PhaseMarginDeg, w.PhaseMarginDeg) || !sameFloat(g.OvershootPct, w.OvershootPct) {
			t.Fatalf("peak %d = %+v, want %+v", i, g, w)
		}
	}
	dom := func(r *Result) int {
		for i := range r.Peaks {
			if r.Dominant == &r.Peaks[i] {
				return i
			}
		}
		return -1
	}
	if dom(got) != dom(want) {
		t.Fatalf("dominant peak %d, want %d", dom(got), dom(want))
	}
}

// columnTFs are the responses each Analyzer case runs over one grid: a
// single loop, two loops, a sharp low-frequency loop, and an overdamped
// pair with no resonance.
func columnTFs() []ratfn.TF {
	two := ratfn.SecondOrder(0.2, 2*math.Pi*1e5).Mul(ratfn.SecondOrder(0.4, 2*math.Pi*5e7))
	return []ratfn.TF{
		ratfn.SecondOrder(0.3, 2*math.Pi*1e6),
		two,
		ratfn.SecondOrder(0.1, 2*math.Pi*3e4),
		ratfn.SecondOrder(1.5, 2*math.Pi*1e6),
	}
}

// requireAxisIntact fails unless ax still holds grid and its log axis is
// the one-shot ln of grid, bit for bit.
func requireAxisIntact(t *testing.T, ax *Axis, grid []float64) {
	t.Helper()
	if !ax.holds(grid) || !slices.Equal(ax.Freqs(), grid) {
		t.Fatal("the shared axis no longer holds its grid")
	}
	for i, u := range logs(grid) {
		if !sameFloat(ax.Logs()[i], u) {
			t.Fatalf("shared log axis[%d] = %v, want %v", i, ax.Logs()[i], u)
		}
	}
}

// TestAnalyzerMatchesAnalyze: one warm Analyzer running column after
// column on a shared grid returns, for each, exactly what the one-shot
// Analyze does, from exactly the P the one-shot Plot does — on a uniform
// grid (auto picks 5-point), an adaptive non-uniform grid (auto picks
// 3-point), and explicit stencils 3 and 5. It does so both computing the
// log axis itself and borrowing a shared Axis of the grid, which it
// leaves as it found it.
func TestAnalyzerMatchesAnalyze(t *testing.T) {
	uniform := num.LogGridPPD(1e3, 1e9, 40)
	adaptive := refinedGrid(3e4, 3e6)
	if logUniform(logs(adaptive)) {
		t.Fatal("refined grid is uniform")
	}
	for _, tc := range []struct {
		name    string
		grid    []float64
		opts    Options
		stencil int // the stencil the plot must have used
	}{
		{"uniform-auto", uniform, DefaultOptions(), 5},
		{"adaptive-auto", adaptive, DefaultOptions(), 3},
		{"uniform-3", uniform, Options{Stencil: 3, MinPeakDepth: 0.75}, 3},
		{"uniform-5-maxpeaks", uniform, Options{Stencil: 5, MinPeakDepth: 0.75}, 5},
	} {
		for _, shared := range []bool{false, true} {
			name := tc.name
			if shared {
				name += "/shared-axis"
			}
			t.Run(name, func(t *testing.T) {
				an := NewAnalyzer(tc.opts)
				var ax *Axis
				if shared {
					ax = NewAxis(tc.grid)
					an = NewAnalyzerOn(tc.opts, ax)
				}
				for pass := 0; pass < 2; pass++ {
					for _, tf := range columnTFs() {
						mag := magOn(tf, tc.grid)
						got, err := an.Analyze(mag)
						if err != nil {
							t.Fatal(err)
						}
						requireWarmPlot(t, an, mag)
						want, err := Analyze(mag, tc.opts)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, got, want)
					}
				}
				if an.stencil != tc.stencil {
					t.Errorf("stencil %d, want %d", an.stencil, tc.stencil)
				}
				if shared {
					requireAxisIntact(t, ax, tc.grid)
					if an.ax != ax || an.own.u != nil {
						t.Error("an Analyzer on a shared axis computed a log axis of its own")
					}
				}
			})
		}
	}
}

func logs(x []float64) []float64 {
	u := make([]float64, len(x))
	for i, f := range x {
		u[i] = math.Log(f)
	}
	return u
}

// TestAnalyzerAlternatingGrids: two distinct grids of equal length,
// alternated, each get their own axis — the cache keys on the slice's
// identity, not its length. With a borrowed Axis of the first grid, that
// grid reads the shared axis every time, the others go through the
// Analyzer's own scratch, and the shared axis is never written.
func TestAnalyzerAlternatingGrids(t *testing.T) {
	a := num.LogGridPPD(1e3, 1e9, 40)
	b := make([]float64, len(a))
	for i, f := range a {
		b[i] = 10 * f
	}
	c := slices.Clone(a) // same values as a, another array
	tf := ratfn.SecondOrder(0.3, 2*math.Pi*1e6)
	for _, shared := range []bool{false, true} {
		an := NewAnalyzer(DefaultOptions())
		var ax *Axis
		if shared {
			ax = NewAxis(a)
			an = NewAnalyzerOn(DefaultOptions(), ax)
		}
		for i := 0; i < 6; i++ {
			grid := [][]float64{a, b, c}[i%3]
			mag := magOn(tf, grid)
			got, err := an.Analyze(mag)
			if err != nil {
				t.Fatal(err)
			}
			requireWarmPlot(t, an, mag)
			want, err := Analyze(mag, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, got, want)
			if &an.ax.x[0] != &grid[0] {
				t.Fatalf("shared %v, round %d: cache still keyed on the previous grid", shared, i)
			}
			if shared && (an.ax == ax) != (i%3 == 0) {
				t.Fatalf("round %d: the shared axis is used for the wrong grid", i)
			}
		}
		if shared {
			requireAxisIntact(t, ax, a)
		}
	}
}

// TestAnalyzerErrors: a warm Analyzer still reports short grids,
// non-positive frequencies (even on a grid as long as the cached one),
// a 5-point stencil on a non-uniform grid and unsupported stencils, and
// recovers on the next valid column.
func TestAnalyzerErrors(t *testing.T) {
	grid := num.LogGridPPD(1e3, 1e9, 10)
	tf := ratfn.SecondOrder(0.3, 2*math.Pi*1e6)
	an := NewAnalyzer(DefaultOptions())
	if _, err := an.Analyze(magOn(tf, grid)); err != nil {
		t.Fatal(err)
	}
	wantErr := func(err error, frag string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("err = %v, want one containing %q", err, frag)
		}
	}
	_, err := an.Analyze(wave.NewReal("short", []float64{1, 2, 3}, []float64{1, 1, 1}))
	wantErr(err, "need at least 5 frequency points, have 3")
	// Wave literals: wave.New would reject these unsorted axes.
	for _, i := range []int{3, 1} {
		x := slices.Clone(grid)
		x[i] = -float64(i)
		_, err = an.Analyze(&wave.Wave{Name: "bad", X: x, Y: magOn(tf, grid).Y})
		wantErr(err, "non-positive frequency at index "+strconv.Itoa(i))
	}
	if _, err := an.Analyze(magOn(tf, grid)); err != nil {
		t.Errorf("valid column after errors: %v", err)
	}

	adaptive := refinedGrid(3e4, 3e6)
	_, err = NewAnalyzer(Options{Stencil: 5}).Analyze(magOn(tf, adaptive))
	wantErr(err, "5-point stencil needs a uniform log grid")
	_, err = NewAnalyzer(Options{Stencil: 7}).Analyze(magOn(tf, grid))
	wantErr(err, "unsupported stencil 7 (want 0, 3 or 5)")
	_, err = NewAnalyzer(Options{Stencil: 7}).Plot(magOn(tf, grid))
	wantErr(err, "unsupported stencil 7 (want 3 or 5)")
}

// TestAnalyzerWarmAllocs pins the warm path's allocations to its output:
// the Result and one exact-length Peaks array, or the Result alone when
// there is no peak — no P array, plot wave, log axis, ln|T| or peak scratch.
// An Analyzer borrowing the grid's Axis allocates no log axis at all, not
// even on its first column.
func TestAnalyzerWarmAllocs(t *testing.T) {
	grid := num.LogGridPPD(1e3, 1e9, 40)
	flat := make([]float64, len(grid))
	for i := range flat {
		flat[i] = 1
	}
	for _, tc := range []struct {
		name string
		mag  *wave.Wave
		want float64
	}{
		{"two-loops", magOn(columnTFs()[1], grid), 2},
		{"flat", wave.NewReal("flat", grid, flat), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			an := NewAnalyzer(DefaultOptions())
			res, err := an.Analyze(tc.mag)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == 1 && res.Peaks != nil {
				t.Fatalf("Peaks = %v, want nil", res.Peaks)
			}
			if tc.want == 2 && (len(res.Peaks) == 0 || cap(res.Peaks) != len(res.Peaks)) {
				t.Fatalf("Peaks len %d cap %d, want a non-empty exact-length slice", len(res.Peaks), cap(res.Peaks))
			}
			got := testing.AllocsPerRun(20, func() {
				if _, err := an.Analyze(tc.mag); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.want {
				t.Errorf("warm Analyze allocated %v times, want at most %v (Result and %d peaks)", got, tc.want, len(res.Peaks))
			}

			// A first column costs the same scratch either way, except the
			// log axis, which a borrowing Analyzer does not build.
			ax := NewAxis(grid)
			cold := func(mk func() *Analyzer) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := mk().Analyze(tc.mag); err != nil {
						t.Fatal(err)
					}
				})
			}
			own := cold(func() *Analyzer { return NewAnalyzer(DefaultOptions()) })
			borrowed := cold(func() *Analyzer { return NewAnalyzerOn(DefaultOptions(), ax) })
			if borrowed >= own {
				t.Errorf("cold Analyze allocated %v times on a shared axis and %v on its own, want fewer (no log axis)", borrowed, own)
			}
			shared := NewAnalyzerOn(DefaultOptions(), ax)
			if _, err := shared.Analyze(tc.mag); err != nil {
				t.Fatal(err)
			}
			if shared.own.u != nil {
				t.Error("an Analyzer on a shared axis allocated a log axis")
			}
			got = testing.AllocsPerRun(20, func() {
				if _, err := shared.Analyze(tc.mag); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.want {
				t.Errorf("warm Analyze on a shared axis allocated %v times, want at most %v", got, tc.want)
			}
			requireAxisIntact(t, ax, grid)
		})
	}
}

// TestPlotOnDemandMatchesScratch: a stability plot built on demand — a
// warm Analyzer's Plot right after its Analyze, and the one-shot Plot — is
// the P scratch Analyze read the peaks from, bit for bit, with the
// magnitude's X unit and its X aliased, on uniform and adaptive grids,
// both stencils, and with the min/max filter off. Building it costs only
// the wave, its name and its samples.
func TestPlotOnDemandMatchesScratch(t *testing.T) {
	uniform := num.LogGridPPD(1e3, 1e9, 40)
	adaptive := refinedGrid(3e4, 3e6)
	for _, tc := range []struct {
		name string
		grid []float64
		opts Options
	}{
		{"uniform-5", uniform, DefaultOptions()},
		{"uniform-3", uniform, Options{Stencil: 3, MinPeakDepth: 0.75}},
		{"adaptive", adaptive, DefaultOptions()},
		{"no-minmax-filter", uniform, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			an := NewAnalyzer(tc.opts)
			var mag *wave.Wave
			for _, tf := range columnTFs() {
				mag = magOn(tf, tc.grid)
				mag.XUnit = "Hz"
				if _, err := an.Analyze(mag); err != nil {
					t.Fatal(err)
				}
				requireWarmPlot(t, an, mag)
			}
			got := testing.AllocsPerRun(20, func() {
				if _, err := an.Plot(mag); err != nil {
					t.Fatal(err)
				}
			})
			if got > 3 {
				t.Errorf("warm Plot allocated %v times, want at most 3 (wave, name, samples)", got)
			}
		})
	}
}

// TestAnalyzerRelease: Release hands an Analyzer's scratch to the next
// NewAnalyzerOn, whose columns must not disturb the results the first
// one handed out; a released Analyzer grows fresh scratch and still
// reads the one-shot Analyze's peaks.
func TestAnalyzerRelease(t *testing.T) {
	grid := num.LogGridPPD(1e3, 1e9, 40)
	ax := NewAxis(grid)
	tfs := columnTFs()
	fingerprint := func(res *Result) string {
		return fmt.Sprintf("%v", res.Peaks)
	}
	first := NewAnalyzerOn(DefaultOptions(), ax)
	res, err := first.Analyze(magOn(tfs[1], grid))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(res)
	first.Release()
	second := NewAnalyzerOn(DefaultOptions(), ax)
	for _, tf := range tfs {
		if _, err := second.Analyze(magOn(tf, grid)); err != nil {
			t.Fatal(err)
		}
	}
	second.Release()
	if got := fingerprint(res); got != want {
		t.Errorf("a released Analyzer's result changed under the next one's columns:\n got %s\nwant %s", got, want)
	}
	for _, tf := range tfs {
		mag := magOn(tf, grid)
		got, err := first.Analyze(mag)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Analyze(mag, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(ref) {
			t.Errorf("released Analyzer read %v, one-shot Analyze %v", got.Peaks, ref.Peaks)
		}
	}
}
