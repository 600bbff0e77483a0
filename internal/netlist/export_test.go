package netlist

// Exports for the external test package, which may import the circuit
// builders (they import netlist, so netlist's own tests cannot).
var (
	Dump            = dump
	ParseSeeds      = parseSeeds
	RobustnessDecks = robustnessDecks
)
