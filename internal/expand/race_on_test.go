//go:build race

package expand_test

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation counts of pooled paths are not meaningful under it.
const raceEnabled = true
