//go:build race

package storage

// raceEnabled: allocation counts are not measured under the race
// detector, whose runtime instruments allocation and drops sync.Pool
// items at random.
const raceEnabled = true
