//go:build !race

package expand_test

const raceEnabled = false
