package tool

// Compiled is the immutable, shareable half of a Tool: the flattened
// circuit, the compiled MNA system, the solver's shared symbolic state
// (stamp pattern, pivot order, reach-set plans), and the cached DC
// operating point. It is what the farm worker's content-addressed cache
// stores — production traffic re-submits near-identical netlists
// (corners, Monte Carlo samples, small edits), and everything in here
// depends only on the netlist text and the design-variable overrides, so
// one compile serves every subsequent request with the same fingerprint.
//
// A Compiled is safe for concurrent use by many Tools: the circuit and
// system are read-only after Compile, the symbolic cache inside the base
// Sim is internally locked, and the operating point is built at most once
// under the Compiled's own lock.

import (
	"context"
	"fmt"
	"sync"

	"acstab/internal/analysis"
	"acstab/internal/mna"
	"acstab/internal/netlist"
	"acstab/internal/obs"
)

// Compiled is a flattened and compiled circuit plus the solver state that
// outlives any single run. Build one with Compile, then stamp out cheap
// Tools with NewFromCompiled.
type Compiled struct {
	// Flat is the flattened circuit (auto-zeroed when the compile options
	// asked for it). Read-only.
	Flat *netlist.Circuit
	// Sys is the compiled MNA system. Read-only during AC analysis.
	Sys *mna.System

	// base owns the shared AC symbolic cache; every Tool built from this
	// artifact forks it, so the pattern analysis and reach-set plans are
	// computed once and reused read-only across requests.
	base *analysis.Sim

	// op is the cached DC operating point, built on first use. opErr
	// caches a deterministic solve failure (non-convergence) so a known-bad
	// circuit fails fast on re-submission; context-induced failures are
	// never cached.
	mu    sync.Mutex
	op    *mna.OpPoint
	opErr error
}

// Compile flattens and compiles the circuit once. Only the
// compile-relevant options are consulted: AutoZeroAC (whether pre-existing
// AC stimuli are zeroed on the flattened copy), Analysis (solver options
// baked into the shared base Sim), and Trace (the flatten/mna_assembly
// phase spans land in it). The sweep options play no role here — the same
// Compiled serves runs with any frequency grid.
func Compile(ckt *netlist.Circuit, opts Options) (*Compiled, error) {
	sp := obs.StartPhase(opts.Trace, "flatten")
	flat, err := netlist.Flatten(ckt)
	sp.End()
	if err != nil {
		return nil, err
	}
	if opts.AutoZeroAC {
		flat.ZeroACSources()
	}
	sp = obs.StartPhase(opts.Trace, "mna_assembly")
	sys, err := mna.Compile(flat)
	sp.End()
	if err != nil {
		return nil, err
	}
	base := analysis.New(sys)
	if opts.Analysis != nil {
		base.Opt = *opts.Analysis
	}
	return &Compiled{Flat: flat, Sys: sys, base: base}, nil
}

// ACChecksum returns the structural checksum of the shared AC stamp
// pattern and whether the symbolic analysis is warm — (0, false) until the
// first sparse sweep, or after pattern drift invalidated it. Cache layers
// use it to verify a reused artifact still describes the same circuit.
func (c *Compiled) ACChecksum() (uint64, bool) { return c.base.ACChecksum() }

// ensureOP returns the shared operating point, computing it on first use
// with the given per-request Sim (so Newton counters and the "op" phase
// span land in that request's trace). The lock doubles as single-flight:
// concurrent first requests serialize here and all but one get the cached
// point. A deterministic failure is cached; cancellation is not.
func (c *Compiled) ensureOP(ctx context.Context, sim *analysis.Sim, trace *obs.Run) (*mna.OpPoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.op != nil {
		return c.op, nil
	}
	if c.opErr != nil {
		return nil, c.opErr
	}
	sp := obs.StartPhase(trace, "op")
	op, err := sim.OP(ctx)
	sp.End()
	if err != nil {
		if ctx.Err() == nil {
			c.opErr = err
		}
		return nil, fmt.Errorf("tool: operating point: %w", err)
	}
	c.op = op
	return op, nil
}

// NewFromCompiled returns a Tool over the shared compiled artifact:
// flatten, MNA assembly, the symbolic analysis, and the operating point
// are all reused, so a run goes straight to numeric refactorization and
// the sweep. The sweep options (frequency grid, clustering) are the
// caller's own; the solver options belong to the artifact, so a non-nil
// opts.Analysis that differs from the one it was compiled with is
// refused.
func NewFromCompiled(c *Compiled, opts Options) (*Tool, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	if opts.Analysis != nil && *opts.Analysis != c.base.Opt {
		return nil, fmt.Errorf("tool: solver options differ from the ones the circuit was compiled with")
	}
	return c.newTool(opts), nil
}

// newTool returns a Tool over the artifact for resolved options, with a
// fork of the base Sim tracing into opts.Trace.
func (c *Compiled) newTool(opts Options) *Tool {
	sim := c.base.Fork()
	sim.Trace = opts.Trace
	return &Tool{Flat: c.Flat, Sys: c.Sys, Sim: sim, Opts: opts, shared: c}
}
