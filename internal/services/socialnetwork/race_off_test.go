//go:build !race

package socialnetwork

const raceEnabled = false
