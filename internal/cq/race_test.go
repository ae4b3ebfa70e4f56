//go:build race

package cq

// raceEnabled: allocation counts are not measured under the race
// detector, whose runtime instruments allocation and drops sync.Pool
// items at random.
const raceEnabled = true
