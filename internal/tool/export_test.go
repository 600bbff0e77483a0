package tool

// FirstPassAxis exposes the process-wide first-pass axis memo to the
// external tests.
var FirstPassAxis = firstPassAxis
