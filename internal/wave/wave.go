// Package wave implements the waveform toolkit the tool depends on — the
// equivalent of the DFII Waveform Calculator the paper lists as a
// requirement. It provides sampled waveforms (frequency- or time-domain),
// the measurement operations the stability methodology needs (magnitude,
// dB, unwrapped phase, log-domain derivatives, level crossings, peak
// search), a small expression calculator, and an ASCII plot renderer used
// to regenerate the paper's figures in a terminal.
package wave

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Wave is a sampled waveform y(x) with complex samples (real waveforms
// simply carry zero imaginary parts). X must be strictly increasing.
type Wave struct {
	Name  string
	XUnit string // e.g. "Hz", "s"
	YUnit string // e.g. "V", "dB", "deg"
	LogX  bool   // hint: sampled on a log-x grid
	X     []float64
	Y     []complex128
}

// New creates a waveform from x and complex y samples (slices are taken
// over, not copied). It panics if lengths differ or x is not increasing.
func New(name string, x []float64, y []complex128) *Wave {
	w := Make(name, x, y)
	return &w
}

// Make is New returning the waveform by value, for callers that keep it
// in storage of their own.
func Make(name string, x []float64, y []complex128) Wave {
	if len(x) != len(y) {
		panic("wave: x/y length mismatch")
	}
	for i := 1; i < len(x); i++ {
		if x[i] <= x[i-1] {
			panic(fmt.Sprintf("wave: x not strictly increasing at %d", i))
		}
	}
	return Wave{Name: name, X: x, Y: y}
}

// NewReal creates a real-valued waveform.
func NewReal(name string, x, y []float64) *Wave {
	cy := make([]complex128, len(y))
	for i, v := range y {
		cy[i] = complex(v, 0)
	}
	return New(name, x, cy)
}

// Len returns the number of samples.
func (w *Wave) Len() int { return len(w.X) }

// Clone returns a deep copy.
func (w *Wave) Clone() *Wave {
	c := *w
	c.X = append([]float64(nil), w.X...)
	c.Y = append([]complex128(nil), w.Y...)
	return &c
}

// Real returns the real parts of the samples.
func (w *Wave) Real() []float64 {
	out := make([]float64, len(w.Y))
	for i, v := range w.Y {
		out[i] = real(v)
	}
	return out
}

// Mag returns |y(x)| as a new waveform.
func (w *Wave) Mag() *Wave {
	y := make([]complex128, len(w.Y))
	for i, v := range w.Y {
		y[i] = complex(cmplx.Abs(v), 0)
	}
	out := w.withY(y)
	out.Name = "mag(" + w.Name + ")"
	return out
}

// DB20 returns 20*log10|y| as a new waveform.
func (w *Wave) DB20() *Wave {
	y := make([]complex128, len(w.Y))
	for i, v := range w.Y {
		a := cmplx.Abs(v)
		if a <= 0 {
			y[i] = complex(math.Inf(-1), 0)
		} else {
			y[i] = complex(20*math.Log10(a), 0)
		}
	}
	out := w.withY(y)
	out.Name = "dB20(" + w.Name + ")"
	out.YUnit = "dB"
	return out
}

// PhaseDeg returns the unwrapped phase in degrees as a new waveform.
func (w *Wave) PhaseDeg() *Wave {
	y := make([]complex128, len(w.Y))
	prev := 0.0
	offset := 0.0
	for i, v := range w.Y {
		p := cmplx.Phase(v)
		if i > 0 {
			for p+offset-prev > math.Pi {
				offset -= 2 * math.Pi
			}
			for p+offset-prev < -math.Pi {
				offset += 2 * math.Pi
			}
		}
		up := p + offset
		prev = up
		y[i] = complex(up*180/math.Pi, 0)
	}
	out := w.withY(y)
	out.Name = "phase(" + w.Name + ")"
	out.YUnit = "deg"
	return out
}

func (w *Wave) withY(y []complex128) *Wave {
	return &Wave{Name: w.Name, XUnit: w.XUnit, YUnit: w.YUnit, LogX: w.LogX,
		X: append([]float64(nil), w.X...), Y: y}
}

// At returns y(x) by linear interpolation of the real parts (log-x aware if
// LogX is set). It clamps outside the domain.
func (w *Wave) At(x float64) float64 {
	n := len(w.X)
	if n == 0 {
		return math.NaN()
	}
	if x <= w.X[0] {
		return real(w.Y[0])
	}
	if x >= w.X[n-1] {
		return real(w.Y[n-1])
	}
	// Binary search.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w.X[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	x0, x1 := w.X[lo], w.X[hi]
	y0, y1 := real(w.Y[lo]), real(w.Y[hi])
	var t float64
	if w.LogX && x0 > 0 {
		t = (math.Log(x) - math.Log(x0)) / (math.Log(x1) - math.Log(x0))
	} else {
		t = (x - x0) / (x1 - x0)
	}
	return y0 + t*(y1-y0)
}

// Cross returns all x where the real part crosses the given level, using
// linear interpolation between adjacent samples.
func (w *Wave) Cross(level float64) []float64 {
	var out []float64
	for i := 1; i < len(w.X); i++ {
		y0, y1 := real(w.Y[i-1])-level, real(w.Y[i])-level
		if y0 == 0 {
			out = append(out, w.X[i-1])
			continue
		}
		if y0*y1 < 0 {
			t := y0 / (y0 - y1)
			var x float64
			if w.LogX && w.X[i-1] > 0 {
				lx := math.Log(w.X[i-1]) + t*(math.Log(w.X[i])-math.Log(w.X[i-1]))
				x = math.Exp(lx)
			} else {
				x = w.X[i-1] + t*(w.X[i]-w.X[i-1])
			}
			out = append(out, x)
		}
	}
	if n := len(w.X); n > 0 && real(w.Y[n-1]) == level {
		out = append(out, w.X[n-1])
	}
	return out
}

// MinIndex returns the index of the minimum real sample.
func (w *Wave) MinIndex() int {
	best, bi := math.Inf(1), -1
	for i, v := range w.Y {
		if r := real(v); r < best {
			best, bi = r, i
		}
	}
	return bi
}

// MaxIndex returns the index of the maximum real sample.
func (w *Wave) MaxIndex() int {
	best, bi := math.Inf(-1), -1
	for i, v := range w.Y {
		if r := real(v); r > best {
			best, bi = r, i
		}
	}
	return bi
}

// DerivLogX returns d Re(y) / d ln(x), computed with central differences on
// the (possibly non-uniform) log-x grid; one-sided at the ends.
func (w *Wave) DerivLogX() *Wave {
	n := len(w.X)
	y := make([]complex128, n)
	u := make([]float64, n)
	for i, x := range w.X {
		u[i] = math.Log(x)
	}
	for i := 0; i < n; i++ {
		switch {
		case n == 1:
			y[i] = 0
		case i == 0:
			y[i] = complex((real(w.Y[1])-real(w.Y[0]))/(u[1]-u[0]), 0)
		case i == n-1:
			y[i] = complex((real(w.Y[n-1])-real(w.Y[n-2]))/(u[n-1]-u[n-2]), 0)
		default:
			// Three-point formula valid on non-uniform grids.
			h0, h1 := u[i]-u[i-1], u[i+1]-u[i]
			ym, y0, yp := real(w.Y[i-1]), real(w.Y[i]), real(w.Y[i+1])
			y[i] = complex((-h1/(h0*(h0+h1)))*ym+((h1-h0)/(h0*h1))*y0+(h0/(h1*(h0+h1)))*yp, 0)
		}
	}
	out := w.withY(y)
	out.Name = "dlnx(" + w.Name + ")"
	return out
}

// SecondDerivLogX returns d^2 Re(y) / d ln(x)^2 using a three-point stencil
// valid on non-uniform grids; the endpoint values copy their neighbors.
func (w *Wave) SecondDerivLogX() *Wave {
	n := len(w.X)
	y := make([]complex128, n)
	u := make([]float64, n)
	for i, x := range w.X {
		u[i] = math.Log(x)
	}
	for i := 1; i < n-1; i++ {
		h0, h1 := u[i]-u[i-1], u[i+1]-u[i]
		ym, y0, yp := real(w.Y[i-1]), real(w.Y[i]), real(w.Y[i+1])
		y[i] = complex(2*(h1*ym-(h0+h1)*y0+h0*yp)/(h0*h1*(h0+h1)), 0)
	}
	if n > 2 {
		y[0] = y[1]
		y[n-1] = y[n-2]
	}
	out := w.withY(y)
	out.Name = "d2lnx(" + w.Name + ")"
	return out
}

// binop applies f elementwise; both waves must share the same X grid.
func binop(name string, a, b *Wave, f func(x, y complex128) complex128) (*Wave, error) {
	if len(a.X) != len(b.X) {
		return nil, fmt.Errorf("wave: grids differ in length (%d vs %d)", len(a.X), len(b.X))
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return nil, fmt.Errorf("wave: grids differ at index %d", i)
		}
	}
	y := make([]complex128, len(a.Y))
	for i := range y {
		y[i] = f(a.Y[i], b.Y[i])
	}
	out := a.withY(y)
	out.Name = "(" + a.Name + name + b.Name + ")"
	return out, nil
}

// Add returns a+b on a shared grid.
func Add(a, b *Wave) (*Wave, error) {
	return binop("+", a, b, func(x, y complex128) complex128 { return x + y })
}

// Sub returns a-b on a shared grid.
func Sub(a, b *Wave) (*Wave, error) {
	return binop("-", a, b, func(x, y complex128) complex128 { return x - y })
}

// Mul returns a*b on a shared grid.
func Mul(a, b *Wave) (*Wave, error) {
	return binop("*", a, b, func(x, y complex128) complex128 { return x * y })
}

// Div returns a/b on a shared grid.
func Div(a, b *Wave) (*Wave, error) {
	return binop("/", a, b, func(x, y complex128) complex128 { return x / y })
}

// Scale returns w scaled by the complex constant k.
func (w *Wave) Scale(k complex128) *Wave {
	y := make([]complex128, len(w.Y))
	for i, v := range w.Y {
		y[i] = k * v
	}
	return w.withY(y)
}

// Offset returns w with the real constant k added to every sample.
func (w *Wave) Offset(k float64) *Wave {
	y := make([]complex128, len(w.Y))
	for i, v := range w.Y {
		y[i] = v + complex(k, 0)
	}
	return w.withY(y)
}

// OvershootPct measures the percent overshoot of a step-like time-domain
// waveform: 100*(max - final)/(final - initial). Returns 0 when the step
// size is degenerate.
func (w *Wave) OvershootPct() float64 {
	if len(w.Y) < 2 {
		return 0
	}
	initial := real(w.Y[0])
	final := real(w.Y[len(w.Y)-1])
	step := final - initial
	if math.Abs(step) < 1e-300 {
		return 0
	}
	peak := initial
	if step > 0 {
		for _, v := range w.Y {
			if r := real(v); r > peak {
				peak = r
			}
		}
		if peak <= final {
			return 0
		}
		return 100 * (peak - final) / step
	}
	for _, v := range w.Y {
		if r := real(v); r < peak {
			peak = r
		}
	}
	if peak >= final {
		return 0
	}
	return 100 * (peak - final) / step
}

// SettleTime returns the first time after which the waveform stays within
// band (fraction, e.g. 0.02) of its final value. Returns the last x if it
// never settles earlier.
func (w *Wave) SettleTime(band float64) float64 {
	n := len(w.Y)
	if n == 0 {
		return math.NaN()
	}
	final := real(w.Y[n-1])
	initial := real(w.Y[0])
	tol := math.Abs(final-initial) * band
	if tol == 0 {
		tol = band * math.Max(math.Abs(final), 1e-30)
	}
	last := w.X[n-1]
	for i := n - 1; i >= 0; i-- {
		if math.Abs(real(w.Y[i])-final) > tol {
			if i == n-1 {
				return w.X[n-1]
			}
			return w.X[i+1]
		}
		last = w.X[i]
	}
	return last
}
