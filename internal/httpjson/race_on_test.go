//go:build race

package httpjson

// raceEnabled reports whether the race detector is active; under it
// sync.Pool drops items at random, so alloc assertions skip.
const raceEnabled = true
