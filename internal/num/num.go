// Package num provides small numeric helpers shared across the simulator:
// SPICE engineering-notation parsing and formatting, logarithmic grids,
// approximate comparison, and safe math utilities.
package num

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseValue parses a SPICE-style numeric literal with an optional
// engineering suffix and optional trailing unit letters, e.g. "1k", "2.2u",
// "10MEG", "1.5pF", "3.3V". Suffix matching is case-insensitive. The
// recognized suffixes are:
//
//	T = 1e12, G = 1e9, MEG = 1e6, K = 1e3,
//	M = 1e-3, U = 1e-6, N = 1e-9, P = 1e-12, F = 1e-15
//
// Note the SPICE convention that a bare "m" means milli; mega must be
// written "meg". Any letters following a recognized suffix are ignored as
// units (so "1kOhm" parses as 1000).
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("num: empty value")
	}
	// Split the leading numeric part from the suffix.
	i := 0
	seenDigit := false
	for i < len(s) {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			seenDigit = true
			i++
		case c == '+' || c == '-':
			if i == 0 {
				i++
			} else if c := s[i-1]; c == 'e' || c == 'E' {
				i++
			} else {
				goto done
			}
		case c == '.':
			i++
		case c == 'e' || c == 'E':
			// Exponent only if followed by digit or sign+digit.
			if i+1 < len(s) && (isDigit(s[i+1]) ||
				((s[i+1] == '+' || s[i+1] == '-') && i+2 < len(s) && isDigit(s[i+2]))) {
				i++
			} else {
				goto done
			}
		default:
			goto done
		}
	}
done:
	if !seenDigit {
		return 0, fmt.Errorf("num: %q is not a number", s)
	}
	base, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("num: %q: %v", s, err)
	}
	suffix := strings.ToLower(s[i:])
	mult := 1.0
	switch {
	case suffix == "":
		mult = 1
	case strings.HasPrefix(suffix, "meg"):
		mult = 1e6
	case strings.HasPrefix(suffix, "mil"):
		mult = 25.4e-6
	case suffix[0] == 't':
		mult = 1e12
	case suffix[0] == 'g':
		mult = 1e9
	case suffix[0] == 'k':
		mult = 1e3
	case suffix[0] == 'm':
		mult = 1e-3
	case suffix[0] == 'u':
		mult = 1e-6
	case suffix[0] == 'n':
		mult = 1e-9
	case suffix[0] == 'p':
		mult = 1e-12
	case suffix[0] == 'f':
		mult = 1e-15
	case suffix[0] == 'a':
		mult = 1e-18
	default:
		// Unknown letters (e.g. "V", "Hz") are treated as units.
		mult = 1
	}
	return base * mult, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// FormatValue renders v with an engineering suffix, e.g. 2.2e-6 -> "2.2u".
// It is the inverse convention of ParseValue (mega rendered as "meg").
func FormatValue(v float64) string {
	if v == 0 {
		return "0"
	}
	av := math.Abs(v)
	type step struct {
		mult   float64
		suffix string
	}
	steps := []step{
		{1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"},
		{1e-12, "p"}, {1e-15, "f"},
	}
	for _, st := range steps {
		if av >= st.mult*0.99999999 {
			return trimFloat(v/st.mult) + st.suffix
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', 6, 64)
	return s
}

// LogSpace returns n points logarithmically spaced from a to b inclusive.
// It panics if a or b is non-positive or n < 2.
func LogSpace(a, b float64, n int) []float64 {
	if a <= 0 || b <= 0 {
		panic("num: LogSpace requires positive endpoints")
	}
	if n < 2 {
		panic("num: LogSpace requires n >= 2")
	}
	la, lb := math.Log(a), math.Log(b)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(la + (lb-la)*float64(i)/float64(n-1))
	}
	out[0], out[n-1] = a, b
	return out
}

// LogGridPPD returns a log grid from fstart to fstop with approximately
// ppd points per decade (always including both endpoints, minimum 2 points).
// Each call returns a fresh slice the caller owns.
func LogGridPPD(fstart, fstop float64, ppd int) []float64 {
	return LogSpace(fstart, fstop, LogGridLen(fstart, fstop, ppd))
}

// LogGridLen is the number of points LogGridPPD(fstart, fstop, ppd)
// returns, computed without building the grid.
func LogGridLen(fstart, fstop float64, ppd int) int {
	if ppd < 1 {
		ppd = 1
	}
	decades := math.Log10(fstop / fstart)
	if math.IsInf(decades, 1) {
		// The ratio overflowed; the difference of the logs does not.
		decades = math.Log10(fstop) - math.Log10(fstart)
	}
	n := int(math.Ceil(decades*float64(ppd))) + 1
	if n < 2 {
		n = 2
	}
	return n
}

// LinSpace returns n points linearly spaced from a to b inclusive.
func LinSpace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("num: LinSpace requires n >= 2")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	out[n-1] = b
	return out
}

// ApproxEqual reports whether a and b agree within relative tolerance rel
// (measured against the larger magnitude) or absolute tolerance abs.
func ApproxEqual(a, b, rel, abs float64) bool {
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DB20 converts a magnitude to decibels (20*log10). Zero or negative
// magnitudes map to -inf.
func DB20(mag float64) float64 {
	if mag <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(mag)
}

// FromDB20 converts decibels to magnitude.
func FromDB20(db float64) float64 { return math.Pow(10, db/20) }

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }
