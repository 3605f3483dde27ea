//go:build !linux

package main

import (
	"errors"
	"time"
)

// cpuTime has no portable source: cpu_us_per_event reads 0 off Linux.
func cpuTime() int64 { return 0 }

// alarm wakes the load generator at its ticks; off Linux, as precisely
// as time.Sleep does.
type alarm struct{}

func newAlarm() (*alarm, error) { return &alarm{}, nil }

func (a *alarm) close() {}

func (a *alarm) sleepUntil(due int64) error {
	time.Sleep(time.Duration(due - nowNs()))
	return nil
}

func keepAwake() (stop func(), err error) {
	return nil, errors.New("idle-class spinners need Linux")
}

func spinIfAsked() {}
