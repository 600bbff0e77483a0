package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Trace Event Format's traceEvents array
// (the JSON-object form understood by Perfetto and chrome://tracing).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace start
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level Trace Event Format document.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the trace in the Chrome Trace Event Format, so
// it opens directly in Perfetto or chrome://tracing. Layout: the local
// process is pid 1 and each grafted remote attempt its own pid (1+attempt),
// every pid named by a process_name metadata event; within a pid,
// overlapping spans (a phase and its nested sub-phases) are packed
// greedily into thread lanes, tid 0 holding the whole-run root span. Solver counters and
// slow points ride along as args of the root event.
func (t Trace) WriteChromeTrace(w io.Writer) error {
	procName := func(pid int) string {
		if pid == 1 {
			if t.Name != "" {
				return t.Name
			}
			return "acstab"
		}
		return fmt.Sprintf("farm worker (attempt %d)", pid-1)
	}
	byPid := map[int][]PhaseSpan{}
	for _, sp := range t.Phases {
		pid := 1
		if sp.Attempt > 0 {
			pid = 1 + sp.Attempt
		}
		byPid[pid] = append(byPid[pid], sp)
	}
	pids := make([]int, 0, len(byPid)+1)
	pids = append(pids, 1)
	for pid := range byPid {
		if pid != 1 {
			pids = append(pids, pid)
		}
	}
	sort.Ints(pids)

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var events []chromeEvent
	for _, pid := range pids {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": procName(pid)},
		})
	}
	// Root span: the whole run on pid 1, lane 0, carrying the counters and
	// slow points so the aggregate context survives into the viewer.
	rootDur := us(t.DurationNS)
	rootArgs := map[string]any{}
	if len(t.Counters) > 0 {
		rootArgs["counters"] = t.Counters
	}
	if len(t.SlowPoints) > 0 {
		rootArgs["slow_points"] = t.SlowPoints
	}
	if t.DroppedSpans > 0 {
		rootArgs["dropped_spans"] = t.DroppedSpans
	}
	if len(rootArgs) == 0 {
		rootArgs = nil
	}
	events = append(events, chromeEvent{
		Name: procName(1), Ph: "X", Ts: 0, Dur: &rootDur, Pid: 1, Tid: 0,
		Cat: "run", Args: rootArgs,
	})

	for _, pid := range pids {
		spans := append([]PhaseSpan(nil), byPid[pid]...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
		// Greedy lane packing: each span takes the first lane that is free
		// at its start time, so overlapping phases render side by side
		// instead of overlapping in one row.
		var laneEnd []int64
		for _, sp := range spans {
			lane := -1
			for i, end := range laneEnd {
				if end <= sp.StartNS {
					lane = i
					break
				}
			}
			if lane < 0 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = sp.StartNS + sp.DurationNS
			dur := us(sp.DurationNS)
			ev := chromeEvent{
				Name: sp.Phase, Ph: "X", Ts: us(sp.StartNS), Dur: &dur,
				Pid: pid, Tid: lane + 1, Cat: "phase",
			}
			if sp.Attempt > 0 {
				ev.Args = map[string]any{"attempt": sp.Attempt}
			}
			events = append(events, ev)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeDoc{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTrace snapshots the run and writes it in the Chrome Trace
// Event Format (nil-safe; a nil run writes an empty but valid document).
func (r *Run) WriteChromeTrace(w io.Writer) error {
	return r.Trace().WriteChromeTrace(w)
}
