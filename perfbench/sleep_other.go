//go:build !linux

package main

import "time"

// sleeper waits for an arrival's due instant; only Linux has the timerfd
// the precise version uses (sleep_linux.go).
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

// until blocks until t.
func (*sleeper) until(t time.Time) { time.Sleep(time.Until(t)) }

func (*sleeper) close() {}
