//go:build race

package ironhide

// Under the race detector the allocation-budget test takes over a minute,
// and the static export scan gains nothing from it, so both skip there.
const raceEnabled = true
