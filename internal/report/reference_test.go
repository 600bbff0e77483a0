package report

import (
	"encoding/json"
	"io"
	"math"

	"acstab/internal/stab"
	"acstab/internal/tool"
)

// referenceJSON is the reflection encoder AppendJSON replaced: it fills
// the jsonReport shape and lets encoding/json's Encoder render it with
// SetIndent("", "  "). AppendJSON must write exactly these bytes; the
// tests and the fuzz target compare the two.
func referenceJSON(w io.Writer, rep *tool.Report) error {
	out := jsonReport{Circuit: rep.CircuitTitle, TempC: rep.Temp}
	for _, l := range rep.Loops {
		jl := jsonLoop{
			ID: l.ID, FreqHz: l.Freq, WorstPeak: l.WorstPeak,
			Zeta: l.Zeta, PhaseMarginDeg: l.PhaseMarginDeg, OvershootPct: l.OvershootPct,
		}
		for _, np := range l.Nodes {
			jl.Nodes = append(jl.Nodes, np.Node)
		}
		out.Loops = append(out.Loops, jl)
	}
	for _, n := range rep.Nodes {
		jn := jsonNode{Node: n.Node, Skipped: n.Skipped, SkipReason: n.SkipReason}
		if n.Best != nil {
			jn.Best = toJSONPeak(*n.Best)
		}
		if n.Stab != nil {
			for _, p := range n.Stab.Peaks {
				jn.Peaks = append(jn.Peaks, *toJSONPeak(p))
			}
		}
		out.Nodes = append(out.Nodes, jn)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func toJSONPeak(p stab.Peak) *jsonPeak {
	jp := &jsonPeak{FreqHz: p.Freq, Value: p.Value, Type: p.Type.String(), IsZero: p.IsZero}
	if !math.IsNaN(p.Zeta) {
		jp.Zeta = p.Zeta
		jp.PhaseMarginDeg = p.PhaseMarginDeg
		jp.OvershootPct = p.OvershootPct
	}
	return jp
}
