//go:build race

package server_test

// raceEnabled scales stress tests down under the race detector, which
// slows each script several times over.
const raceEnabled = true
