//go:build !race

package farm

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
