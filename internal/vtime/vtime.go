//go:build goexperiment.synctest

// Package vtime runs a test body on virtual time: a testing/synctest bubble
// (go1.24, GOEXPERIMENT=synctest) whose clock moves only when every goroutine
// the body started is durably blocked, and then straight to the next timer.
// What a body must do (stop what it starts: t.Cleanup is too late) and may
// not (spin on the clock, block on a real socket) is in DESIGN.md, "Time".
package vtime

import (
	"testing"
	"testing/synctest"
	"time"
)

// Run runs body in a new bubble and returns once every goroutine in it exits.
func Run(_ *testing.T, body func()) { synctest.Run(body) }

// Wait blocks until every other goroutine in the bubble is durably blocked.
func Wait() { synctest.Wait() }

// Advance moves the bubble's clock on by d, firing what is due on the way. It
// is a sleep; tests spell it so that a time.Sleep in a test file is a real one.
func Advance(d time.Duration) { time.Sleep(d) }
