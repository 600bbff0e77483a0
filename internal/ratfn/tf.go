package ratfn

import (
	"math"
	"math/cmplx"
	"sort"
)

// TF is a rational transfer function Gain * Num(s)/Den(s) described by its
// zeros and poles (complex, in rad/s).
type TF struct {
	Gain  float64
	Zeros []complex128
	Poles []complex128
}

// NewTF builds a transfer function from gain, zeros, and poles.
func NewTF(gain float64, zeros, poles []complex128) TF {
	return TF{
		Gain:  gain,
		Zeros: append([]complex128(nil), zeros...),
		Poles: append([]complex128(nil), poles...),
	}
}

// SecondOrder returns the normalized second-order low-pass
// T(s) = wn^2 / (s^2 + 2 zeta wn s + wn^2), the paper's Eq. (1.1) scaled to
// natural frequency wn (rad/s).
func SecondOrder(zeta, wn float64) TF {
	if zeta < 1 {
		re := -zeta * wn
		im := wn * math.Sqrt(1-zeta*zeta)
		return TF{Gain: wn * wn, Poles: []complex128{complex(re, im), complex(re, -im)}}
	}
	// Real poles for zeta >= 1.
	d := wn * math.Sqrt(zeta*zeta-1)
	return TF{Gain: wn * wn, Poles: []complex128{
		complex(-zeta*wn+d, 0), complex(-zeta*wn-d, 0),
	}}
}

// Eval evaluates T at complex frequency s.
func (t TF) Eval(s complex128) complex128 {
	v := complex(t.Gain, 0)
	for _, z := range t.Zeros {
		v *= s - z
	}
	for _, p := range t.Poles {
		v /= s - p
	}
	return v
}

// MagAt returns |T(jw)|.
func (t TF) MagAt(w float64) float64 {
	return cmplx.Abs(t.Eval(complex(0, w)))
}

// Mul returns the product transfer function t*u.
func (t TF) Mul(u TF) TF {
	return TF{
		Gain:  t.Gain * u.Gain,
		Zeros: append(append([]complex128(nil), t.Zeros...), u.Zeros...),
		Poles: append(append([]complex128(nil), t.Poles...), u.Poles...),
	}
}

// LogLogSecondDeriv returns the analytic d^2 ln|T| / d(ln w)^2 at w, the
// exact value of the paper's stability-plot function P(w) (Eq. 1.3). Each
// pole p contributes -g(w;p) and each zero +g(w;p), where for a root at
// p = a+bi,
//
//	ln|jw - p| = 0.5 ln(a^2 + (w-b)^2)
//
// and the second log-log derivative follows in closed form.
func (t TF) LogLogSecondDeriv(w float64) float64 {
	sum := 0.0
	for _, z := range t.Zeros {
		sum += rootLogLogSecondDeriv(w, z)
	}
	for _, p := range t.Poles {
		sum -= rootLogLogSecondDeriv(w, p)
	}
	return sum
}

// rootLogLogSecondDeriv computes d^2 ln|jw - p| / d(ln w)^2 for a single
// root p = a + bi at frequency w > 0.
func rootLogLogSecondDeriv(w float64, p complex128) float64 {
	a, b := real(p), imag(p)
	// f(w) = a^2 + (w-b)^2 ; ln|jw-p| = 0.5 ln f
	// dL/du = 0.5 * w f'/f with f' = 2(w-b)
	// d2L/du2 = w d/dw (w * (w-b)/f)
	//        = w [ (2w-b)/f - w(w-b) f'/f^2 ]
	f := a*a + (w-b)*(w-b)
	if f == 0 {
		return math.Inf(-1)
	}
	fp := 2 * (w - b)
	return w * ((2*w-b)/f - w*(w-b)*fp/(f*f))
}

// ComplexPolePairs groups the complex poles of t into conjugate pairs and
// returns, for each pair, its natural frequency wn = |p| and damping ratio
// zeta = -Re(p)/|p|, sorted by wn. Poles with |Im| below tol*|p| are treated
// as real and skipped.
func (t TF) ComplexPolePairs(tol float64) (wn, zeta []float64) {
	type pair struct{ wn, z float64 }
	var pairs []pair
	for _, p := range t.Poles {
		if imag(p) <= 0 {
			continue // take one of each conjugate pair
		}
		mag := cmplx.Abs(p)
		if mag == 0 || math.Abs(imag(p)) < tol*mag {
			continue
		}
		pairs = append(pairs, pair{mag, -real(p) / mag})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].wn < pairs[j].wn })
	for _, pr := range pairs {
		wn = append(wn, pr.wn)
		zeta = append(zeta, pr.z)
	}
	return wn, zeta
}

// AsPolys returns numerator and denominator polynomials (monic roots scaled
// by Gain on the numerator).
func (t TF) AsPolys() (num, den Poly) {
	num = FromRoots(t.Zeros...)
	for i := range num.Coeffs {
		num.Coeffs[i] *= complex(t.Gain, 0)
	}
	den = FromRoots(t.Poles...)
	return num, den
}
