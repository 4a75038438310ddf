//go:build race

package driver_test

// Under the race detector the allocation and seed-independence tests take
// about a minute each, so they skip there.
const raceEnabled = true
