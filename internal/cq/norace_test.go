//go:build !race

package cq

const raceEnabled = false
