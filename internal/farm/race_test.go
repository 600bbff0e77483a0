//go:build race

package farm

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what it is handed on purpose, so allocation pins that count on a pool
// hit do not hold there.
const raceEnabled = true
