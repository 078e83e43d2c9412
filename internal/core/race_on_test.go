//go:build race

package core

// raceEnabled reports a -race build, whose shadow memory inflates
// runtime.MemStats.TotalAlloc.
const raceEnabled = true
