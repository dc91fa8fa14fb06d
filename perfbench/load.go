package main

import (
	"context"
	"net/http"
	goruntime "runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase records one measured pass of the load generator: per request, the
// latency, the generator's lateness (open loop), the client round trip,
// the status and the raw body. Bodies are kept as received and checked
// against the reference only after the clock stops.
type phase struct {
	n      int
	stmt   []int
	lat    []time.Duration
	late   []time.Duration
	rtt    []time.Duration
	status []int
	body   [][]byte
	wall   time.Duration

	sent, ok, failed atomic.Int64
	retained         atomic.Int64 // capacity of retained bodies, excluded from peak heap
}

func newPhase(n int) *phase {
	return &phase{
		n: n, stmt: make([]int, n), lat: make([]time.Duration, n), late: make([]time.Duration, n),
		rtt: make([]time.Duration, n), status: make([]int, n), body: make([][]byte, n),
	}
}

// send sends request i of the phase and records it. due is when the
// request was due (the send time in a closed loop).
func (p *phase) send(ctx context.Context, c *client, url string, i int, due time.Time, body []byte, spans *spanLog) {
	p.sent.Add(1)
	start := time.Now()
	data, status, err := c.post(ctx, url, i, body)
	end := time.Now()
	spans.add(spanRec{Name: "client", Req: int64(i)}, start, end)
	p.lat[i] = end.Sub(due)
	p.late[i] = start.Sub(due)
	p.rtt[i] = end.Sub(start)
	p.status[i] = status
	p.body[i] = data
	p.retained.Add(int64(cap(data)))
	if err != nil || status != http.StatusOK {
		p.failed.Add(1)
		return
	}
	p.ok.Add(1)
}

// runClosed is a closed loop: clients goroutines each send the next
// statement of order as soon as their previous one returns.
func runClosed(ctx context.Context, c *client, url string, in *inputs, clients int, traced bool, p *phase, spans *spanLog) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= p.n || ctx.Err() != nil {
					return
				}
				s := &in.stmts[in.order[i]]
				p.stmt[i] = in.order[i]
				p.send(ctx, c, url, i, time.Now(), bodyOf(s, traced), spans)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
}

// runOpen is an open loop on a precomputed arrival schedule, served by at
// most conns connections: a request that falls due while every connection
// is busy waits, and that wait is part of its latency.
func runOpen(ctx context.Context, c *client, url string, in *inputs, sched []arrival, conns int, traced bool, p *phase, spans *spanLog) {
	var next atomic.Int64
	var wg sync.WaitGroup
	base := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= p.n || ctx.Err() != nil {
					return
				}
				a := sched[i]
				due := base.Add(a.at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				p.stmt[i] = a.stmt
				p.send(ctx, c, url, i, due, bodyOf(&in.stmts[a.stmt], traced), spans)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(base)
}

func bodyOf(s *stmt, traced bool) []byte {
	if traced {
		return s.traced
	}
	return s.body
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
	}
}

// heapSampler tracks the peak live heap during a pass, minus the response
// bodies the benchmark itself retains for the post-run check.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(retained *atomic.Int64) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := int64(sample[0].Value.Uint64()) - retained.Load(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() int64 {
	close(h.stop)
	<-h.done
	return h.peak
}
