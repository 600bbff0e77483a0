// Package device implements the device physics of the simulator: junction
// diode, bipolar transistor (Ebers-Moll with Early effect and junction /
// diffusion capacitances), and MOSFET level-1 (square law with channel-
// length modulation, body effect, and Meyer capacitances). Each evaluator
// returns terminal currents, the Jacobian entries Newton iteration needs,
// and the small-signal capacitances the AC analysis stamps. The same
// Jacobian doubles as the AC small-signal conductance set, which is what
// guarantees the AC linearization is consistent with the converged
// operating point.
package device

import "math"

// Physical constants (SI).
const (
	BoltzmannK = 1.380649e-23
	ChargeQ    = 1.602176634e-19
	TNomC      = 27 // nominal model temperature, Celsius
)

// CelsiusToKelvin converts a Celsius temperature.
func CelsiusToKelvin(c float64) float64 { return c + 273.15 }

// Vt returns the thermal voltage kT/q at the given temperature in Celsius.
func Vt(tempC float64) float64 {
	return BoltzmannK * CelsiusToKelvin(tempC) / ChargeQ
}

// expLim is a linearized exponential: above vmax/vt the exponential
// continues linearly, preventing overflow during Newton iteration while
// keeping C1 continuity.
func expLim(x float64) (e, de float64) {
	const xmax = 80 // e^80 ~ 5e34, still representable with headroom
	if x < xmax {
		e = math.Exp(x)
		return e, e
	}
	em := math.Exp(xmax)
	return em * (1 + (x - xmax)), em
}

// JunctionCap returns the depletion capacitance of a junction with zero-
// bias capacitance cj0, built-in potential vj, grading m, at bias v. Above
// fc*vj the standard linear extrapolation avoids the singularity.
func JunctionCap(cj0, vj, m, fc, v float64) float64 {
	if cj0 == 0 {
		return 0
	}
	if v < fc*vj {
		return cj0 / math.Pow(1-v/vj, m)
	}
	// Linearized beyond forward-bias knee.
	f1 := math.Pow(1-fc, -m)
	return cj0 * f1 * (1 + m*(v-fc*vj)/(vj*(1-fc)))
}
