//go:build race

package wire

// raceEnabled reports that this test binary was built with the race
// detector, which instruments allocations and breaks AllocsPerRun
// ceilings.
const raceEnabled = true
