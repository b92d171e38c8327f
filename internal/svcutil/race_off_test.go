//go:build !race

package svcutil

const raceEnabled = false
