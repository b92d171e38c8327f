//go:build !race

package mq

const raceEnabled = false
