//go:build !race

package rest

const raceEnabled = false
