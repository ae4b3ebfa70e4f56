//go:build !race

package storage

const raceEnabled = false
