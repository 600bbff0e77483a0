package stab

import (
	"math"
	"slices"
	"strings"
)

// NodePeak associates a circuit node with its dominant stability peak.
type NodePeak struct {
	Node string
	Peak Peak
}

// Loop is a group of nodes whose dominant peaks share a natural frequency:
// the signature of one feedback loop seen from every node inside it. This
// is the structure of the paper's Table 2 ("Loop at 3.3 MHz", ...).
type Loop struct {
	ID int
	// Freq is the natural frequency of the deepest member peak, the one
	// WorstPeak and the damping figures come from: the oscillation
	// frequency is read at the peak's location, not averaged over the
	// members.
	Freq float64
	// WorstPeak is the deepest (most negative) member peak: the loop's
	// performance index.
	WorstPeak float64
	// Zeta, PhaseMarginDeg, OvershootPct derive from WorstPeak.
	Zeta           float64
	PhaseMarginDeg float64
	OvershootPct   float64
	Nodes          []NodePeak
}

// ClusterLoops groups node peaks into loops by natural frequency using
// single-linkage clustering in log frequency: two peaks join the same loop
// when their frequencies agree within relTol (e.g. 0.12 = 12%). Groups are
// returned sorted by frequency, nodes within a group sorted by name. peaks
// is left as it is; the loops' Nodes share one sorted copy of it.
func ClusterLoops(peaks []NodePeak, relTol float64) []Loop {
	return ClusterLoopsInto(nil, slices.Clone(peaks), relTol)
}

// ClusterLoopsInto is ClusterLoops over storage the caller provides: it
// sorts peaks in place and keeps it as the loops' Nodes, and writes the
// loops over dst's array, growing it as append does. It returns nil when
// there is no peak.
func ClusterLoopsInto(dst []Loop, peaks []NodePeak, relTol float64) []Loop {
	if relTol <= 0 {
		relTol = 0.12
	}
	if len(peaks) == 0 {
		return nil
	}
	slices.SortFunc(peaks, func(a, b NodePeak) int { return byFreq(a.Peak, b.Peak) })
	gap := math.Log(1 + relTol)

	loops := dst[:0]
	start := 0
	for i := 1; i <= len(peaks); i++ {
		if i < len(peaks) &&
			math.Log(peaks[i].Peak.Freq)-math.Log(peaks[i-1].Peak.Freq) <= gap {
			continue
		}
		group := peaks[start:i]
		loops = append(loops, makeLoop(group))
		start = i
	}
	for i := range loops {
		loops[i].ID = i + 1
	}
	return loops
}

// makeLoop makes the loop of group, which it sorts by node name in place
// and keeps as the loop's Nodes.
func makeLoop(group []NodePeak) Loop {
	l := Loop{WorstPeak: math.Inf(1)}
	for _, np := range group {
		if np.Peak.Value < l.WorstPeak {
			l.Freq = np.Peak.Freq
			l.WorstPeak = np.Peak.Value
			l.Zeta = np.Peak.Zeta
			l.PhaseMarginDeg = np.Peak.PhaseMarginDeg
			l.OvershootPct = np.Peak.OvershootPct
		}
	}
	slices.SortFunc(group, byNode)
	l.Nodes = group[:len(group):len(group)]
	return l
}

// byNode orders node peaks by node name; like byFreq, it is negative
// exactly where sort.Slice's "less" was true.
func byNode(a, b NodePeak) int { return strings.Compare(a.Node, b.Node) }
