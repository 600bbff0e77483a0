package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"acstab/internal/report"
	"acstab/internal/sos"
	"acstab/internal/tool"
)

// The verdict oracle. A verdict is what a report tells its reader: each
// probed node's dominant peak and each reported loop. It is read back
// from the rendered report itself, so an unparseable report is a failed
// analysis, and scored against the exact pole pairs of the MNA pencil:
//
//   - recall: the share of exact in-band pairs with zeta <= zetaMax for
//     which some probed node's dominant peak lies within fnTol in natural
//     frequency and zetaTol in damping. Recall is node-level because loop
//     clustering (LoopTol 0.12) merges distinct nearby pairs by design.
//   - precision: the share of reported loops whose dominant member has
//     zeta <= zetaMax and lies within the same tolerances of some exact
//     pair. The dominant member's own peak is used, not the loop's
//     geometric-mean frequency.
const (
	fnTol   = 0.03
	zetaTol = 0.10
	zetaMax = 0.45
)

// verdict is the parsed content of one report.
type verdict struct {
	best  []pair // dominant peak of every probed node that has one
	loops []pair // dominant-member peak of every reported loop
}

func near(got, want pair) bool {
	return math.Abs(got.fn-want.fn) <= fnTol*want.fn &&
		math.Abs(got.zeta-want.zeta) <= zetaTol*want.zeta
}

// score accumulates recall and precision counts over many analyses.
type score struct {
	found, exact, matched, reported int
}

func (s *score) add(v verdict, exact []pair) {
	for _, e := range exact {
		if e.zeta > zetaMax {
			continue
		}
		s.exact++
		for _, b := range v.best {
			if near(b, e) {
				s.found++
				break
			}
		}
	}
	for _, l := range v.loops {
		if l.zeta > zetaMax {
			continue
		}
		s.reported++
		for _, e := range exact {
			if near(l, e) {
				s.matched++
				break
			}
		}
	}
}

func (s score) recall() float64 {
	if s.exact == 0 {
		return 1
	}
	return float64(s.found) / float64(s.exact)
}

func (s score) precision() float64 {
	if s.reported == 0 {
		return 1
	}
	return float64(s.matched) / float64(s.reported)
}

// checker counts analyses and scores their verdicts against the exact
// pole pairs. A failed analysis or an unparseable report is a failure.
type checker struct {
	attempted, failed int
	score             score
	failures          []string // the first few, for the log
}

// verify checks analysis a of job j: its rendered report body, or the
// error that kept it from rendering one. wire selects the farm's JSON
// renderings over the CLI's text ones.
func (c *checker) verify(j *job, a int, body []byte, err error, wire bool) {
	c.attempted++
	var v verdict
	if err == nil {
		parse := parseCLIReport
		if wire {
			parse = parseWireReport
		}
		v, err = parse(body, j.node != "")
	}
	if err != nil {
		c.failed++
		if len(c.failures) < 5 {
			c.failures = append(c.failures, fmt.Sprintf("%s: %v", j.family, err))
		}
		return
	}
	c.score.add(v, j.exact[a])
}

// ok reports whether every analysis succeeded with a perfect verdict.
func (c *checker) ok() bool {
	return c.failed == 0 && c.score.recall() == 1 && c.score.precision() == 1
}

// parseCLIReport reads a verdict back from the in-process CLI's text: the
// single-node lines of writeSingle or the all-nodes report.
func parseCLIReport(b []byte, single bool) (verdict, error) {
	if single {
		return parseSingleReport(b)
	}
	return parseTextReport(b)
}

// parseWireReport reads a verdict back from a farm item body: the
// single-node JSON object or the JSON report.
func parseWireReport(b []byte, single bool) (verdict, error) {
	if single {
		return parseSingleJSON(b)
	}
	return parseJSONReport(b)
}

// parseTextReport parses report.Text: "Loop at" headers followed by member
// rows "node |peak| fn notes", then the rows of nodes outside any loop.
func parseTextReport(b []byte) (verdict, error) {
	var v verdict
	sc := bufio.NewScanner(bytes.NewReader(b))
	if !sc.Scan() || sc.Text() != "AC-Stability All-Nodes Report" {
		return v, fmt.Errorf("not an all-nodes report")
	}
	// The header ends at the rule line under the column titles.
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "----") {
	}
	// Each loop keeps its deepest member: the dominant one.
	type loop struct {
		dominant pair
		depth    float64
	}
	var loops []loop
	inLoop := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Loop at "):
			loops = append(loops, loop{})
			inLoop = true
		case line == "Nodes without resonant peaks":
			inLoop = false
		default:
			f := strings.Fields(line)
			if len(f) < 3 {
				return v, fmt.Errorf("bad report row %q", line)
			}
			if f[1] == "-" {
				continue // skipped, or no negative peak
			}
			mag, err1 := strconv.ParseFloat(f[1], 64)
			fn, err2 := strconv.ParseFloat(f[2], 64)
			if err1 != nil || err2 != nil || mag <= 0 {
				return v, fmt.Errorf("bad report row %q", line)
			}
			p := pair{fn, sos.ZetaFromIndex(-mag)}
			v.best = append(v.best, p)
			if inLoop && mag > loops[len(loops)-1].depth {
				loops[len(loops)-1] = loop{p, mag}
			}
		}
	}
	for _, l := range loops {
		if l.depth == 0 {
			return v, fmt.Errorf("loop without members")
		}
		v.loops = append(v.loops, l.dominant)
	}
	return v, sc.Err()
}

// parseSingleReport parses writeSingle's "dominant:" line; a node without
// one reports no loop.
func parseSingleReport(b []byte) (verdict, error) {
	var v verdict
	if !bytes.HasPrefix(b, []byte("node ")) {
		return v, fmt.Errorf("not a single-node report")
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "dominant:") {
			continue
		}
		var val, fn, zeta float64
		if _, err := fmt.Sscanf(line, "dominant: peak %g at %g Hz -> zeta %g", &val, &fn, &zeta); err != nil {
			return v, fmt.Errorf("bad dominant line %q: %w", line, err)
		}
		p := pair{fn, zeta}
		v.best = append(v.best, p)
		v.loops = append(v.loops, p)
	}
	return v, nil
}

// parseSingleJSON parses the farm's single-node JSON object; a node
// without a dominant peak carries no peak fields and reports no loop.
func parseSingleJSON(b []byte) (verdict, error) {
	var v verdict
	var r struct {
		Node string  `json:"node"`
		Peak float64 `json:"peak"`
		Fn   float64 `json:"natural_freq_hz"`
		Zeta float64 `json:"zeta"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return v, err
	}
	if r.Node == "" {
		return v, fmt.Errorf("not a single-node result")
	}
	if r.Peak != 0 {
		p := pair{r.Fn, r.Zeta}
		v.best = append(v.best, p)
		v.loops = append(v.loops, p)
	}
	return v, nil
}

// parseJSONReport parses report.JSON through report.ParseJSON, the same
// reader the shard coordinator trusts.
func parseJSONReport(b []byte) (verdict, error) {
	var v verdict
	rep, err := report.ParseJSON(bytes.NewReader(b))
	if err != nil {
		return v, err
	}
	for _, n := range rep.Nodes {
		if n.Best != nil && !n.Best.IsZero && !math.IsNaN(n.Best.Zeta) {
			v.best = append(v.best, pair{n.Best.Freq, n.Best.Zeta})
		}
	}
	for _, l := range rep.Loops {
		if len(l.Nodes) == 0 {
			return v, fmt.Errorf("loop %d has no members", l.ID)
		}
		dom := l.Nodes[0].Peak
		for _, np := range l.Nodes[1:] {
			if np.Peak.Value < dom.Value {
				dom = np.Peak
			}
		}
		v.loops = append(v.loops, pair{dom.Freq, dom.Zeta})
	}
	return v, nil
}

// writeSingle renders a single-node result the way `acstab -node` prints
// it: the peak list and the dominant-peak summary line.
func writeSingle(w *bytes.Buffer, nr *tool.NodeResult) {
	if nr.Skipped {
		fmt.Fprintf(w, "node %s skipped: %s\n", nr.Node, nr.SkipReason)
		return
	}
	fmt.Fprintf(w, "node %s: %d peak(s)\n", nr.Node, len(nr.Stab.Peaks))
	for _, p := range nr.Stab.Peaks {
		kind := "pole"
		if p.IsZero {
			kind = "zero"
		}
		fmt.Fprintf(w, "  %-4s peak %9.3f at %.4g Hz (%s)\n", kind, p.Value, p.Freq, p.Type)
	}
	if nr.Best != nil && !nr.Best.IsZero {
		fmt.Fprintf(w, "dominant: peak %.3f at %.4g Hz -> zeta %.3f, phase margin %.1f deg, overshoot %.1f%%\n",
			nr.Best.Value, nr.Best.Freq, nr.Best.Zeta, nr.Best.PhaseMarginDeg, nr.Best.OvershootPct)
	}
}
