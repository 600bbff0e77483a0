package analysis

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"acstab/internal/mna"
	"acstab/internal/obs"
)

// TestSweepEntriesTrace pins what each AC sweep entry leaves behind, for
// both matrix modes on a clean ladder, on the one-point-fallback island of
// TestRefactorFallbackAtOnePoint and on the residual-breach rig of
// TestACResidualBreachRepaired: every trace counter and numerics
// statistic, the phase-span names, the slow-point solver tags per
// frequency, and the returned values bitwise (an FNV-64a digest of their
// IEEE bits). The golden is testdata/sweep_entries.golden; a change to
// how the entries share their per-frequency loop must leave it untouched.
func TestSweepEntriesTrace(t *testing.T) {
	ctx := context.Background()
	type fixture struct {
		name  string
		freqs []float64
		sim   func(m MatrixMode) *Sim
	}
	fixtures := []fixture{
		{"ladder", sweepFreqs(8), func(m MatrixMode) *Sim {
			s := compile(t, randomLadder(rand.New(rand.NewSource(21)), 12))
			s.Opt.Matrix = m
			return s
		}},
		{"island", []float64{0.01, 1e7, 1e8, 1e9}, func(m MatrixMode) *Sim {
			c := fallbackIslandCircuit(8)
			c.AddC("CZ2", "zp", "zq", 1e-15)
			s := compile(t, c)
			s.Opt.Matrix = m
			if m == MatrixSparse {
				pat, sym := marginalPivotSymbolic(t, s, 2*math.Pi*1e9)
				installSymbolic(s, pat, sym)
			}
			return s
		}},
		{"breach", []float64{1e6, 2e6, 5e6, 1e7}, func(m MatrixMode) *Sim {
			s := compileMarginalIsland(t)
			s.Opt.Matrix = m
			if m == MatrixSparse {
				pat, sym := marginalPivotSymbolic(t, s, 2*math.Pi*1e6)
				installSymbolic(s, pat, sym)
			}
			return s
		}},
	}
	entries := []struct {
		name string
		run  func(s *Sim, freqs []float64, op *mna.OpPoint) ([][]complex128, error)
	}{
		{"AC", func(s *Sim, freqs []float64, op *mna.OpPoint) ([][]complex128, error) {
			r, err := s.AC(ctx, freqs, op)
			if err != nil {
				return nil, err
			}
			return r.Sol, nil
		}},
		{"ImpedanceMatrixColumns", func(s *Sim, freqs []float64, op *mna.OpPoint) ([][]complex128, error) {
			return s.ImpedanceMatrixColumns(ctx, freqs, op, allNodeIdx(s))
		}},
		{"ImpedanceDiagSweep", func(s *Sim, freqs []float64, op *mna.OpPoint) ([][]complex128, error) {
			return s.ImpedanceDiagSweep(ctx, freqs, op, allNodeIdx(s))
		}},
	}
	modes := []struct {
		name string
		m    MatrixMode
	}{{"sparse", MatrixSparse}, {"dense", MatrixDense}}

	var got strings.Builder
	for _, e := range entries {
		for _, m := range modes {
			for _, fx := range fixtures {
				s := fx.sim(m.m)
				op := mustOP(t, s) // before the trace: only the sweep's work is pinned
				run := obs.StartRun("entries")
				s.Trace = run
				vals, err := e.run(s, fx.freqs, op)
				run.Finish()
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", e.name, m.name, fx.name, err)
				}
				fmt.Fprintf(&got, "== %s %s %s\n", e.name, m.name, fx.name)
				writeTraceDigest(&got, run.Trace(), vals)
			}
		}
	}

	path := filepath.Join("testdata", "sweep_entries.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, got.String())
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s\nfull output:\n%s", path, i+1, gl[i], wl[i], got.String())
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, %s has %d\nfull output:\n%s", len(gl), path, len(wl), got.String())
	}
}

// writeTraceDigest writes the deterministic part of one sweep's trace —
// wall times and span timestamps left out — plus a digest of its values.
func writeTraceDigest(w *strings.Builder, tr obs.Trace, vals [][]complex128) {
	var keys []string
	for k := range tr.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "counter %s %d\n", k, tr.Counters[k])
	}
	keys = keys[:0]
	for k := range tr.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "stat %s %x\n", k, math.Float64bits(tr.Stats[k]))
	}
	for _, p := range tr.Phases {
		fmt.Fprintf(w, "phase %s\n", p.Phase)
	}
	var slow []string
	for _, p := range tr.SlowPoints {
		slow = append(slow, fmt.Sprintf("slow %g Hz %s", p.FreqHz, p.Detail))
	}
	sort.Strings(slow)
	for _, l := range slow {
		fmt.Fprintln(w, l)
	}
	h := fnv.New64a()
	var buf [16]byte
	for _, row := range vals {
		for _, z := range row {
			putBits(buf[:8], math.Float64bits(real(z)))
			putBits(buf[8:], math.Float64bits(imag(z)))
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(w, "values %dx%d fnv64a %016x\n", len(vals), len(vals[0]), h.Sum64())
}

func putBits(b []byte, u uint64) {
	for i := range 8 {
		b[i] = byte(u >> (8 * i))
	}
}
