package num

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1", 1},
		{"1.5", 1.5},
		{"-2.5", -2.5},
		{"1k", 1e3},
		{"1K", 1e3},
		{"2.2u", 2.2e-6},
		{"10MEG", 10e6},
		{"10meg", 10e6},
		{"3m", 3e-3},
		{"4n", 4e-9},
		{"5p", 5e-12},
		{"6f", 6e-15},
		{"7g", 7e9},
		{"8t", 8e12},
		{"1.5pF", 1.5e-12},
		{"1kOhm", 1e3},
		{"3.3V", 3.3},
		{"1e6", 1e6},
		{"1e-3", 1e-3},
		{"2.5e3k", 2.5e6},
		{"1E3", 1e3},
		{"100Hz", 100}, // H is not a suffix letter we scale
		{"0", 0},
		{"+4", 4},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): unexpected error %v", c.in, err)
			continue
		}
		if !ApproxEqual(got, c.want, 1e-12, 0) {
			t.Errorf("ParseValue(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "k", "--1", "."} {
		if _, err := ParseValue(in); err == nil {
			t.Errorf("ParseValue(%q): expected error", in)
		}
	}
}

func TestParseValueHzSuffix(t *testing.T) {
	// "100Hz": 'h' is unknown, treated as a unit, so multiplier 1.
	got, err := ParseValue("100Hz")
	if err != nil || got != 100 {
		t.Fatalf("ParseValue(100Hz) = %v, %v", got, err)
	}
}

func TestFormatValueRoundTrip(t *testing.T) {
	vals := []float64{1, 1e3, 2.2e-6, 10e6, 3e-3, 4e-9, 5e-12, 6e-15, 7e9, 8e12, 0, -4.7e3}
	for _, v := range vals {
		s := FormatValue(v)
		got, err := ParseValue(s)
		if err != nil {
			t.Fatalf("round trip %g -> %q: %v", v, s, err)
		}
		if !ApproxEqual(got, v, 1e-5, 1e-30) {
			t.Errorf("round trip %g -> %q -> %g", v, s, got)
		}
	}
}

func TestFormatValueRoundTripQuick(t *testing.T) {
	f := func(mantissa float64, exp10 int8) bool {
		e := int(exp10)%12 - 6
		v := mantissa * math.Pow(10, float64(e))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		s := FormatValue(v)
		got, err := ParseValue(s)
		if err != nil {
			return false
		}
		return ApproxEqual(got, v, 1e-4, 1e-25)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestLogSpace(t *testing.T) {
	g := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if !ApproxEqual(g[i], want[i], 1e-12, 0) {
			t.Errorf("LogSpace[%d] = %g, want %g", i, g[i], want[i])
		}
	}
}

func TestLogSpaceEndpoints(t *testing.T) {
	g := LogSpace(2.5, 7.7e9, 123)
	if g[0] != 2.5 || g[len(g)-1] != 7.7e9 {
		t.Errorf("endpoints not exact: %g, %g", g[0], g[len(g)-1])
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("not strictly increasing at %d", i)
		}
	}
}

func TestLogGridPPD(t *testing.T) {
	g := LogGridPPD(1e3, 1e9, 10)
	if g[0] != 1e3 || g[len(g)-1] != 1e9 {
		t.Errorf("endpoints: %g %g", g[0], g[len(g)-1])
	}
	// 6 decades * 10 ppd + 1 = 61 points.
	if len(g) != 61 {
		t.Errorf("len = %d, want 61", len(g))
	}
	// Uniform in log: ratio constant.
	r := g[1] / g[0]
	for i := 2; i < len(g); i++ {
		if !ApproxEqual(g[i]/g[i-1], r, 1e-9, 0) {
			t.Fatalf("ratio not constant at %d", i)
		}
	}
}

// TestLogGridLen: the length helper agrees with the grid it sizes, and
// every LogGridPPD call hands back a fresh slice its caller may own.
func TestLogGridLen(t *testing.T) {
	for _, tc := range []struct {
		fstart, fstop float64
		ppd           int
	}{
		{1e3, 1e9, 40}, {1e3, 1e9, 10}, {1e4, 1e8, 20}, {1, 1.5, 40},
		{1e3, 1e9, 0}, {1e3, 1e9, -3}, {1e2, 1e9, 30}, {17, 2.3e7, 7},
	} {
		g := LogGridPPD(tc.fstart, tc.fstop, tc.ppd)
		if n := LogGridLen(tc.fstart, tc.fstop, tc.ppd); n != len(g) {
			t.Errorf("LogGridLen(%g, %g, %d) = %d, LogGridPPD has %d points", tc.fstart, tc.fstop, tc.ppd, n, len(g))
		}
		if h := LogGridPPD(tc.fstart, tc.fstop, tc.ppd); &h[0] == &g[0] {
			t.Errorf("LogGridPPD(%g, %g, %d) returned the same array twice", tc.fstart, tc.fstop, tc.ppd)
		}
	}
}

// TestLogGridLenWideRange: a range whose ratio overflows a float64 still
// gets its full length (600 decades at 10 ppd), not the 2-point floor.
func TestLogGridLenWideRange(t *testing.T) {
	if n := LogGridLen(1e-300, 1e300, 10); n != 6001 {
		t.Errorf("LogGridLen(1e-300, 1e300, 10) = %d, want 6001", n)
	}
}

func TestLogSpacePanics(t *testing.T) {
	for _, f := range []func(){
		func() { LogSpace(0, 1, 3) },
		func() { LogSpace(1, -1, 3) },
		func() { LogSpace(1, 2, 1) },
		func() { LinSpace(1, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLinSpace(t *testing.T) {
	g := LinSpace(0, 10, 11)
	for i := range g {
		if !ApproxEqual(g[i], float64(i), 1e-12, 1e-12) {
			t.Errorf("LinSpace[%d] = %g", i, g[i])
		}
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-9, 1e-6, 0) {
		t.Error("relative tolerance failed")
	}
	if ApproxEqual(1.0, 1.1, 1e-6, 0) {
		t.Error("should not be equal")
	}
	if !ApproxEqual(0, 1e-15, 0, 1e-12) {
		t.Error("absolute tolerance failed")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

func TestDB20(t *testing.T) {
	if !ApproxEqual(DB20(10), 20, 1e-12, 0) {
		t.Error("DB20(10) != 20")
	}
	if !math.IsInf(DB20(0), -1) {
		t.Error("DB20(0) should be -inf")
	}
	if !ApproxEqual(FromDB20(40), 100, 1e-12, 0) {
		t.Error("FromDB20(40) != 100")
	}
}

func TestDegRad(t *testing.T) {
	if !ApproxEqual(Deg(math.Pi), 180, 1e-12, 0) || !ApproxEqual(Rad(180), math.Pi, 1e-12, 0) {
		t.Error("Deg/Rad wrong")
	}
}
