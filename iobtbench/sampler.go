package main

import (
	"bytes"
	"runtime"
	"time"
)

// stackSampler is a small wall-clock profiler: while it runs, it takes
// every goroutine's stack at a fixed interval and counts the samples in
// which any goroutine is inside each watched function prefix. The
// attribution self-checks use it to see which layers a run enters
// without changing the program under test.
type stackSampler struct {
	watch   []string
	counts  []int
	samples int
	stop    chan struct{}
	done    chan struct{}
}

// sampleEvery is the sampling interval. Each sample stops the world for
// a few tens of microseconds, under 1% of a traced run.
const sampleEvery = 5 * time.Millisecond

// startSampler begins sampling for the given function-name prefixes, as
// they appear in a goroutine dump (for example "iobt/internal/cop.").
func startSampler(watch ...string) *stackSampler {
	s := &stackSampler{watch: watch, counts: make([]int, len(watch)),
		stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *stackSampler) loop() {
	defer close(s.done)
	buf := make([]byte, 1<<20)
	keys := make([][]byte, len(s.watch))
	for i, w := range s.watch {
		keys[i] = []byte("\n" + w)
	}
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		dump := buf[:runtime.Stack(buf, true)]
		s.samples++
		for i, k := range keys {
			if bytes.Contains(dump, k) {
				s.counts[i]++
			}
		}
	}
}

// finish stops sampling and returns the sample count and, per watched
// prefix, how many samples contained it.
func (s *stackSampler) finish() (int, []int) {
	close(s.stop)
	<-s.done
	return s.samples, s.counts
}
