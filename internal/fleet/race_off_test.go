//go:build !race

package fleet

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
