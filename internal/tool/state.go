package tool

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"acstab/internal/netlist"
)

// State is a saved tool configuration — the offline substitute for loading
// a saved Analog Artist "state" that the paper lists as planned work. It
// captures the whole run setup, under the same keys as the farm wire's
// options, and the design-variable values, so a run can be reproduced
// later or shared.
type State struct {
	Version int `json:"version"`
	Options
	TempC     *float64           `json:"temp_c,omitempty"`
	Variables map[string]float64 `json:"variables,omitempty"`
}

// stateVersion is bumped on incompatible changes.
const stateVersion = 1

// CaptureState snapshots the run options and the circuit's design
// variables.
func CaptureState(ckt *netlist.Circuit, opts Options) *State {
	s := &State{Version: stateVersion, Options: opts}
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

// LoadState reads a saved state over the run options base: the setup
// keys the file has win, the ones it lacks keep base's values. Keys the
// tool no longer has (a sweep worker count, the naive sweep mode) are
// ignored.
func LoadState(r io.Reader, base Options) (*State, error) {
	s := State{Options: base}
	s.SkipNodes = slices.Clone(base.SkipNodes)
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("tool: bad state file: %w", err)
	}
	if s.Version != stateVersion {
		return nil, fmt.Errorf("tool: state version %d, want %d", s.Version, stateVersion)
	}
	return &s, nil
}

// Apply sets the circuit's temperature and design variables from the
// state; Flatten re-evaluates the element values that read them.
func (s *State) Apply(ckt *netlist.Circuit) error {
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
