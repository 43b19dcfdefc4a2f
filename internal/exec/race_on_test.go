//go:build race

package exec

// raceEnabled scales stress tests down under the race detector, which
// slows each script several times over.
const raceEnabled = true
