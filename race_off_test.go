//go:build !race

package pimdsm

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
