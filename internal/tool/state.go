package tool

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"acstab/internal/netlist"
)

// State is a saved tool configuration — the offline substitute for loading
// a saved Analog Artist "state" that the paper lists as planned work. It
// captures the sweep setup and the design-variable values so a run can be
// reproduced later or shared.
type State struct {
	Version         int                `json:"version"`
	FStart          float64            `json:"fstart_hz"`
	FStop           float64            `json:"fstop_hz"`
	PointsPerDecade int                `json:"points_per_decade"`
	LoopTol         float64            `json:"loop_tol"`
	SkipNodes       []string           `json:"skip_nodes,omitempty"`
	TempC           *float64           `json:"temp_c,omitempty"`
	Variables       map[string]float64 `json:"variables,omitempty"`
}

// stateVersion is bumped on incompatible changes.
const stateVersion = 1

// CaptureState snapshots the run options and the circuit's design
// variables.
func CaptureState(ckt *netlist.Circuit, opts Options) *State {
	s := &State{
		Version:         stateVersion,
		FStart:          opts.FStart,
		FStop:           opts.FStop,
		PointsPerDecade: opts.PointsPerDecade,
		LoopTol:         opts.LoopTol,
		SkipNodes:       append([]string(nil), opts.SkipNodes...),
	}
	if ckt != nil {
		t := ckt.Temp
		s.TempC = &t
		if len(ckt.Params) > 0 {
			s.Variables = map[string]float64{}
			for k, v := range ckt.Params {
				s.Variables[k] = v
			}
		}
	}
	return s
}

// Save writes the state as JSON.
func (s *State) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// LoadState reads a saved state.
func LoadState(r io.Reader) (*State, error) {
	var s State
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("tool: bad state file: %w", err)
	}
	if s.Version != stateVersion {
		return nil, fmt.Errorf("tool: state version %d, want %d", s.Version, stateVersion)
	}
	return &s, nil
}

// Apply merges the state into run options and (when vars is true) the
// circuit's temperature and design variables; Flatten re-evaluates the
// element values that read them.
func (s *State) Apply(ckt *netlist.Circuit, opts *Options, vars bool) error {
	if s.FStart > 0 {
		opts.FStart = s.FStart
	}
	if s.FStop > 0 {
		opts.FStop = s.FStop
	}
	if s.PointsPerDecade > 0 {
		opts.PointsPerDecade = s.PointsPerDecade
	}
	if s.LoopTol > 0 {
		opts.LoopTol = s.LoopTol
	}
	if len(s.SkipNodes) > 0 {
		opts.SkipNodes = append([]string(nil), s.SkipNodes...)
	}
	if ckt == nil || !vars {
		return nil
	}
	if s.TempC != nil {
		ckt.Temp = *s.TempC
	}
	for k, v := range s.Variables {
		if _, ok := ckt.Params[k]; !ok {
			return fmt.Errorf("tool: state variable %q not in circuit", k)
		}
		ckt.Params[k] = v
	}
	return nil
}

// ParamSweepPoint is one step of a design-variable sweep.
type ParamSweepPoint struct {
	Value  float64
	Report *Report
	Err    error
}

// RunParamSweep sweeps one design variable across the given values,
// running an all-nodes analysis at each point (the paper's "in-tool
// sweeps" feature generalized beyond temperature). The source circuit is
// not modified.
func RunParamSweep(ctx context.Context, ckt *netlist.Circuit, opts Options, param string, values []float64) ([]ParamSweepPoint, error) {
	if _, ok := ckt.Params[param]; !ok {
		return nil, fmt.Errorf("tool: unknown design variable %q", param)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	out := make([]ParamSweepPoint, len(sorted))
	for i, v := range sorted {
		out[i].Value = v
		rep, err := runVariant(ctx, ckt, opts, map[string]float64{param: v}, nil)
		out[i].Report = rep
		out[i].Err = err
	}
	return out, nil
}
