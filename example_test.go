package acstab_test

import (
	"context"
	"fmt"
	"log"

	acstab "acstab"
)

// The paper's single-node flow: probe one node of a closed-loop circuit
// and read the resonance parameters off the stability plot.
func ExampleAnalyzeNodeContext() {
	ckt, err := acstab.ParseNetlist(`resonant tank
R1 t 0 318
L1 t 0 25.33u
C1 t 0 1n
`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := acstab.AnalyzeNodeContext(context.Background(), ckt, "t", acstab.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	d := res.Dominant
	fmt.Printf("natural frequency ~ %.0f kHz\n", d.FreqHz/1000)
	fmt.Printf("damping ratio %.2f\n", d.Zeta)
	fmt.Printf("kind: %s\n", d.Kind)
	// Output:
	// natural frequency ~ 1000 kHz
	// damping ratio 0.25
	// kind: normal
}

// The all-nodes flow groups resonant nodes into feedback loops, like the
// paper's Table 2.
func ExampleAnalyzeAllNodesContext() {
	ckt, err := acstab.ParseNetlist(`two tanks
R1 a 0 318
L1 a 0 25.33u
C1 a 0 1n
R2 b 0 318
L2 b 0 2.533u
C2 b 0 0.1n
`)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := acstab.AnalyzeAllNodesContext(context.Background(), ckt, acstab.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range rep.Loops {
		fmt.Printf("loop %d at ~%.0f MHz with %d node(s)\n",
			l.ID, l.FreqHz/1e6, len(l.Nodes))
	}
	// Output:
	// loop 1 at ~1 MHz with 1 node(s)
	// loop 2 at ~10 MHz with 1 node(s)
}

// The simulator substrate is directly usable: DC operating point, AC
// sweeps with the waveform calculator, and transient analysis.
func ExampleCircuit_OperatingPoint() {
	ckt, err := acstab.ParseNetlist(`divider
V1 in 0 10
R1 in out 3k
R2 out 0 1k
`)
	if err != nil {
		log.Fatal(err)
	}
	op, err := ckt.OperatingPoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v(out) = %.2f V\n", op["out"])
	// Output:
	// v(out) = 2.50 V
}
