package circuits

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"acstab/internal/analysis"
	"acstab/internal/num"
	"acstab/internal/stab"
)

func measureAll(t *testing.T, p OpAmpParams) (fc, pm, f180, fn, peak, os float64) {
	t.Helper()
	s := sim(t, OpAmpOpenLoop(p))
	op, err := s.OP(context.Background())
	if err != nil {
		return
	}
	freqs := num.LogGridPPD(1e2, 1e9, 60)
	res, err := s.AC(context.Background(), freqs, op)
	if err != nil {
		return
	}
	w, _ := res.NodeWave("output")
	g := w.DB20()
	ph := w.PhaseDeg()
	if cr := g.Cross(0); len(cr) > 0 {
		fc = cr[0]
		pm = ph.At(fc)
	}
	if c0 := ph.Cross(0); len(c0) > 0 {
		f180 = c0[0]
	}
	cb := OpAmpBuffer(p)
	cb.ZeroACSources()
	s2 := sim(t, cb)
	op2, err := s2.OP(context.Background())
	if err != nil {
		return
	}
	zw, err := impedance(s2, num.LogGridPPD(1e4, 1e8, 60), op2, "output")
	if err != nil {
		return
	}
	r2, err := stab.Analyze(zw.Mag(), stab.DefaultOptions())
	if err != nil || r2.Dominant == nil {
		return
	}
	fn = r2.Dominant.Freq
	peak = r2.Dominant.Value
	s3 := sim(t, OpAmpBuffer(p))
	tr, err := s3.Tran(context.Background(), analysis.TranSpec{TStop: 3e-6, TStep: 2e-9})
	if err != nil {
		return
	}
	wt, _ := tr.NodeWave("output")
	os = wt.OvershootPct()
	return
}

func costAll(t *testing.T, p OpAmpParams) float64 {
	fc, pm, f180, fn, peak, os := measureAll(t, p)
	if fn == 0 || fc == 0 || os == 0 {
		return math.Inf(1)
	}
	sq := func(x float64) float64 { return x * x }
	c := sq((fc-2.4e6)/2.4e6) + sq((pm-20)/20*0.7) + sq((f180-3.5e6)/3.5e6)
	c += 8*sq((fn-3.16e6)/3.16e6) + 4*sq((peak+28.9)/28.9) + 2*sq((os-55)/55)
	return c
}

func TestTuneOpamp(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	best := OpAmpDefaults()
	bc := costAll(t, best)
	fc, pm, f180, fn, peak, os := measureAll(t, best)
	t.Logf("start: cost=%.4g fc=%.4g pm=%.4g f180=%.4g fn=%.4g peak=%.4g os=%.4g", bc, fc, pm, f180, fn, peak, os)
	r := rand.New(rand.NewSource(23))
	for it := 0; it < 800; it++ {
		c := best
		scale := math.Pow(10, -0.7-1.3*r.Float64())
		switch r.Intn(6) {
		case 0:
			c.Gm1 *= 1 + scale*r.NormFloat64()
		case 1:
			c.Gm2 *= 1 + scale*r.NormFloat64()
		case 2:
			c.C2 *= 1 + scale*r.NormFloat64()
		case 3:
			c.CLoad *= 1 + scale*r.NormFloat64()
		case 4:
			c.ROut *= 1 + scale*r.NormFloat64()
		case 5:
			c.RZero *= 1 + scale*r.NormFloat64()
		}
		if c.ROut < 30 {
			c.ROut = 30
		}
		if cc := costAll(t, c); cc < bc {
			best, bc = c, cc
		}
	}
	fc, pm, f180, fn, peak, os = measureAll(t, best)
	t.Logf("best: cost=%.4g fc=%.4g pm=%.4g f180=%.4g fn=%.4g peak=%.4g os=%.4g", bc, fc, pm, f180, fn, peak, os)
	t.Logf("params: %+v", best)
}
