package stab

import (
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

// requireSameResult fails unless got and want agree bit for bit: plot
// samples, every peak field, and which peak is dominant.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Plot.Y) != len(want.Plot.Y) || got.Plot.Name != want.Plot.Name {
		t.Fatalf("plot shape/name differ: %d %q vs %d %q", len(got.Plot.Y), got.Plot.Name, len(want.Plot.Y), want.Plot.Name)
	}
	for i := range want.Plot.Y {
		g, w := got.Plot.Y[i], want.Plot.Y[i]
		if !sameFloat(real(g), real(w)) || !sameFloat(imag(g), imag(w)) {
			t.Fatalf("plot[%d] = %v, want %v", i, g, w)
		}
	}
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

// TestAnalyzerMatchesAnalyze: one warm Analyzer running column after
// column on a shared grid returns, for each, exactly what the one-shot
// Analyze does — on a uniform grid (auto picks 5-point), an adaptive
// non-uniform grid (auto picks 3-point), and explicit stencils 3 and 5.
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
		{"uniform-5-maxpeaks", uniform, Options{Stencil: 5, MinPeakDepth: 0.75, MaxPeaks: 1}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			an := NewAnalyzer(tc.opts)
			for pass := 0; pass < 2; pass++ {
				for _, tf := range columnTFs() {
					mag := magOn(tf, tc.grid)
					got, err := an.Analyze(mag)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Analyze(mag, tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, got, want)
					if &got.Plot.X[0] != &tc.grid[0] {
						t.Fatal("plot does not share the grid as X")
					}
				}
			}
			if an.stencil != tc.stencil {
				t.Errorf("stencil %d, want %d", an.stencil, tc.stencil)
			}
		})
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
// identity, not its length.
func TestAnalyzerAlternatingGrids(t *testing.T) {
	a := num.LogGridPPD(1e3, 1e9, 40)
	b := make([]float64, len(a))
	for i, f := range a {
		b[i] = 10 * f
	}
	c := slices.Clone(a) // same values as a, another array
	an := NewAnalyzer(DefaultOptions())
	tf := ratfn.SecondOrder(0.3, 2*math.Pi*1e6)
	for i := 0; i < 6; i++ {
		grid := [][]float64{a, b, c}[i%3]
		mag := magOn(tf, grid)
		got, err := an.Analyze(mag)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Analyze(mag, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, got, want)
		if &an.x[0] != &grid[0] {
			t.Fatalf("round %d: cache still keyed on the previous grid", i)
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
// the plot wave, its samples and name, the Result, and the Peaks slice's
// append growth — no log axis, ln|T| or plot scratch.
func TestAnalyzerWarmAllocs(t *testing.T) {
	grid := num.LogGridPPD(1e3, 1e9, 40)
	mag := magOn(columnTFs()[1], grid)
	an := NewAnalyzer(DefaultOptions())
	res, err := an.Analyze(mag)
	if err != nil {
		t.Fatal(err)
	}
	peakAllocs := 0
	var grow []Peak
	for range res.Peaks {
		if len(grow) == cap(grow) {
			peakAllocs++
		}
		grow = append(grow, Peak{})
	}
	want := float64(4 + peakAllocs)
	got := testing.AllocsPerRun(20, func() {
		if _, err := an.Analyze(mag); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Errorf("warm Analyze allocated %v times, want at most %v (output only: %d peaks)", got, want, len(res.Peaks))
	}
}
