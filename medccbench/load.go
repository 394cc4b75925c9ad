package main

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// checkFn judges one answer: status and body.
type checkFn func(o *op, status int, body []byte) bool

// phaseResult is the accounting of one load phase.
type phaseResult struct {
	attempted, failed int64
	wall              time.Duration
	lat               []float64 // seconds, open loop; +Inf for a failed operation
	late              []float64 // seconds, open loop: send time minus due time
	class             []int     // open loop: request class of each latency
}

// closedLoop runs conns clients, each sending its next request as soon
// as the previous answer is read, until d has passed. The clients take
// tickets from one shared counter, so the sequence is played in order
// from position from, whatever the interleaving.
func closedLoop(conns []*rawConn, seq []*op, from int64, d time.Duration, check checkFn) phaseResult {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for _, rc := range conns {
		wg.Add(1)
		go func(rc *rawConn) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(end) {
				o := seq[int((from+next.Add(1)-1)%int64(len(seq)))]
				code, err := rc.roundTrip(o.req, &buf)
				if err != nil || !check(o, code, buf.Bytes()) {
					failed.Add(1)
				}
			}
		}(rc)
	}
	wg.Wait()
	return phaseResult{attempted: next.Load(), failed: failed.Load(), wall: time.Since(start)}
}

// openLoop sends request i at start + i/rate whatever the server does,
// from conns senders that each take the next due request when free. A
// request's latency runs from its due time, so a stall that delays later
// sends is charged to them too; lateness (send time minus due time)
// measures how far the generator itself fell behind.
func openLoop(conns []*rawConn, seq []*op, from int64, rate float64, d time.Duration, check checkFn) phaseResult {
	n := int64(rate * d.Seconds())
	interval := float64(time.Second) / rate
	lat := make([]float64, n)
	late := make([]float64, n)
	class := make([]int, n)
	ok := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for _, rc := range conns {
		wg.Add(1)
		go func(rc *rawConn) {
			defer wg.Done()
			// Each sender owns its thread and sleeps with nanosleep at 1 µs
			// timer slack: the runtime's own timers wake up to a millisecond
			// late, which would swamp sub-millisecond latencies. The thread
			// exits with the goroutine, taking its slack setting with it.
			runtime.LockOSThread()
			_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				sleepUntil(due)
				sent := time.Now()
				o := seq[int((from+i)%int64(len(seq)))]
				code, err := rc.roundTrip(o.req, &buf)
				doneAt := time.Now()
				late[i] = sent.Sub(due).Seconds()
				class[i] = o.class
				lat[i] = doneAt.Sub(due).Seconds()
				ok[i] = err == nil && check(o, code, buf.Bytes())
			}
		}(rc)
	}
	wg.Wait()
	r := phaseResult{attempted: n, wall: time.Since(start), late: late, lat: lat, class: class}
	for i := range ok {
		if !ok[i] {
			r.failed++
			lat[i] = math.Inf(1)
		}
	}
	return r
}

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
