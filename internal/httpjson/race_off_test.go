//go:build !race

package httpjson

const raceEnabled = false
