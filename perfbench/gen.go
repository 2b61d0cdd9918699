package main

import (
	"math/rand"
	"sync"
	"time"
)

// arrival is one update of an open-loop schedule.
type arrival struct {
	due    time.Duration // when it is due, from the loop's start
	writer int           // the only writer that issues its key
	key    int
	val    int64 // unique across the schedule: index + 1
}

// schedule lays out rate·dur arrivals at a fixed rate.  Arrival i goes to
// writer i mod writers, and each key belongs to exactly one writer (key
// mod writers), so one key's updates are issued in order by one
// goroutine: two writers on one key could reorder its branch writes and
// make a correct replica look as if it lost an update.  Keys are seeded
// picks among the writer's own.
func schedule(seed int64, rate float64, dur time.Duration, keys, writers int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * dur.Seconds())
	out := make([]arrival, n)
	per := keys / writers
	for i := range out {
		w := i % writers
		out[i] = arrival{
			due:    time.Duration(float64(i) / rate * float64(time.Second)),
			writer: w,
			key:    w + writers*rng.Intn(per),
			val:    int64(i + 1),
		}
	}
	return out
}

// loopStamps are the generator's own records of one run, in ns since
// its start: when each arrival was issued and when the sink returned.
type loopStamps struct {
	start   time.Time
	issued  []int64
	done    []int64
	errs    []error
	elapsed time.Duration // start to the last sink return
}

// lateness is how long after its due instant arrival i was issued.
func (s *loopStamps) lateness(arr []arrival, i int) time.Duration {
	return time.Duration(s.issued[i]) - arr[i].due
}

// runOpenLoop issues the schedule, due instants counted from start, with
// one goroutine per writer, each sleeping until its next arrival is due
// and issuing at once when it is already late, so a stall in the sink
// delays later arrivals instead of thinning the schedule.  Latency is to
// be taken from the due instant.
func runOpenLoop(start time.Time, arr []arrival, writers int, sink func(a arrival) error) *loopStamps {
	s := &loopStamps{
		start:  start,
		issued: make([]int64, len(arr)),
		done:   make([]int64, len(arr)),
		errs:   make([]error, len(arr)),
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sl := newSleeper()
			defer sl.close()
			for i := w; i < len(arr); i += writers {
				sl.until(s.start.Add(arr[i].due))
				s.issued[i] = int64(time.Since(s.start))
				s.errs[i] = sink(arr[i])
				s.done[i] = int64(time.Since(s.start))
			}
		}(w)
	}
	wg.Wait()
	s.elapsed = time.Since(s.start)
	return s
}
