//go:build race

package driver_test

// Under the race detector, sync.Pool deliberately drops recycled items at
// random to surface reuse races, so tests that assert the machine arena's
// allocation savings are meaningless there.
const raceEnabled = true
