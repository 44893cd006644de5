package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/stats"
)

const (
	windows     = 10 // measurement windows per run; timing metrics are medians over them
	checkEvery  = 64 // one admitted tree in this many is kept for the delivery check
	minP99Count = 1000
)

// client is one closed-loop caller: it issues its next request only after
// the previous one (and its release) has returned.
type client struct {
	id        int
	admitNs   []int64
	releaseNs []int64

	attempted, admitted, failed, overloaded int
	cost                                    float64
	shards                                  map[string]int

	fifo  []int // held sessions, oldest first (Hold workloads)
	trees []*multicast.PseudoTree
	err   error // first harness-level error; fails the run
}

// window is one measurement window's samples, sorted.
type window struct {
	wall    time.Duration
	admit   []int64
	release []int64
}

func (w *window) rate() float64 { return float64(len(w.admit)) / w.wall.Seconds() }

// driver pushes a stream through a stack in windows.
type driver struct {
	*env
	stack   stack
	level   level
	clients []client
	next    atomic.Int64 // next stream index
	keepAll bool         // live tail: admitted sessions are not released

	wins     []window
	allAdmit []int64
	prefix   digest
	memStart runtime.MemStats
	memEnd   runtime.MemStats
	gcStart  [2]float64
	gcEnd    [2]float64
}

// digest is the decision record of the warm-up window: a fixed prefix of
// the stream, so at one client it is exactly reproducible for a seed.
type digest struct {
	Requests int     `json:"requests"`
	Admitted int     `json:"admitted"`
	CostSum  float64 `json:"cost_sum"`
}

func newDriver(e *env, s stack, l level, clients int) *driver {
	d := &driver{env: e, stack: s, level: l, clients: make([]client, clients)}
	for c := range d.clients {
		d.clients[c] = client{id: c, shards: make(map[string]int)}
	}
	return d
}

// one runs one admission attempt and whatever release the workload's
// pattern attaches to it.
func (d *driver) one(cl *client, i int) {
	t0 := time.Now()
	o := d.stack.admit(cl.id, i)
	t1 := time.Now()
	d.rec.add(d.level, "admit", i+1, t0, t1, !o.admitted)
	cl.admitNs = append(cl.admitNs, int64(t1.Sub(t0)))
	cl.attempted++
	if o.failed {
		cl.failed++
		if o.overloaded {
			cl.overloaded++
		}
		return
	}
	if !o.admitted {
		return
	}
	keep := i%checkEvery == 0
	if o.body != nil {
		if err := settle(&o, d.st.reqs[i], keep); err != nil && cl.err == nil {
			cl.err = err
		}
	}
	cl.admitted++
	cl.cost += o.cost
	cl.shards[o.shard]++
	if keep {
		cl.trees = append(cl.trees, o.tree)
	}
	switch {
	case d.keepAll, d.w.Offline: // nothing to release
	case d.w.Hold == 0:
		d.release(cl, i)
	default:
		cl.fifo = append(cl.fifo, i)
		if len(cl.fifo) > d.w.Hold {
			d.release(cl, cl.fifo[0])
			cl.fifo = cl.fifo[1:]
		}
	}
}

func (d *driver) release(cl *client, i int) {
	t0 := time.Now()
	err := d.stack.release(cl.id, i)
	t1 := time.Now()
	d.rec.add(d.level, "release", i+1, t0, t1, false)
	cl.releaseNs = append(cl.releaseNs, int64(t1.Sub(t0)))
	if err != nil {
		cl.failed++
		if cl.err == nil {
			cl.err = err
		}
	}
}

// span runs the clients until the deadline passes (zero: no deadline) or
// the stream index reaches limit, and returns the wall time.
func (d *driver) span(until time.Time, limit int) time.Duration {
	if max := d.st.len(); limit > max {
		limit = max
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range d.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for until.IsZero() || time.Now().Before(until) {
				i := int(d.next.Add(1)) - 1
				if i >= limit {
					return
				}
				d.one(cl, i)
			}
		}(&d.clients[c])
	}
	wg.Wait()
	wall := time.Since(start)
	if int(d.next.Load()) > limit {
		d.next.Store(int64(limit))
	}
	return wall
}

// collect moves the clients' samples into a sorted window.
func (d *driver) collect(wall time.Duration) window {
	w := window{wall: wall}
	for c := range d.clients {
		cl := &d.clients[c]
		w.admit = append(w.admit, cl.admitNs...)
		w.release = append(w.release, cl.releaseNs...)
		cl.admitNs, cl.releaseNs = cl.admitNs[:0], cl.releaseNs[:0]
	}
	slices.Sort(w.admit)
	slices.Sort(w.release)
	return w
}

// warmup runs the discarded warm-up window — by count, so it is the same
// prefix of the stream on every run — and zeroes the decision counters
// after recording the prefix digest.
func (d *driver) warmup(n int) {
	d.collect(d.span(time.Time{}, n))
	for c := range d.clients {
		cl := &d.clients[c]
		d.prefix.Requests += cl.attempted
		d.prefix.Admitted += cl.admitted
		d.prefix.CostSum += cl.cost
		cl.attempted, cl.admitted, cl.failed, cl.overloaded, cl.cost = 0, 0, 0, 0, 0
		for k := range cl.shards {
			delete(cl.shards, k)
		}
	}
}

// measure runs the ten timed windows over budget.
func (d *driver) measure(budget time.Duration) {
	runtime.GC()
	runtime.ReadMemStats(&d.memStart)
	d.gcStart = gcCPU()
	for i := 0; i < windows; i++ {
		wall := d.span(time.Now().Add(budget/windows), math.MaxInt32)
		w := d.collect(wall)
		if len(w.admit) == 0 {
			break // stream exhausted
		}
		d.wins = append(d.wins, w)
		d.allAdmit = append(d.allAdmit, w.admit...)
	}
	d.gcEnd = gcCPU()
	runtime.ReadMemStats(&d.memEnd)
	slices.Sort(d.allAdmit)
}

// replay pushes exactly the next n requests of the stream through the
// stack, untimed.
func (d *driver) replay(n int) {
	d.collect(d.span(time.Time{}, int(d.next.Load())+n))
}

// drain releases every held session, untimed.
func (d *driver) drain() {
	for c := range d.clients {
		cl := &d.clients[c]
		for _, i := range cl.fifo {
			if err := d.stack.release(cl.id, i); err != nil && cl.err == nil {
				cl.err = err
			}
		}
		cl.fifo = nil
	}
}

// tail admits n more sessions and leaves them live.
func (d *driver) tail(n int) (admitted int) {
	before := d.total().admitted
	d.keepAll = true
	d.replay(n)
	d.keepAll = false
	return d.total().admitted - before
}

// totals over all clients since the warm-up.
type totals struct {
	attempted, admitted, failed, overloaded int
	cost                                    float64
	shards                                  map[string]int
	trees                                   []*multicast.PseudoTree
	err                                     error
}

func (d *driver) total() totals {
	t := totals{shards: make(map[string]int)}
	for c := range d.clients {
		cl := &d.clients[c]
		t.attempted += cl.attempted
		t.admitted += cl.admitted
		t.failed += cl.failed
		t.overloaded += cl.overloaded
		t.cost += cl.cost
		for k, v := range cl.shards {
			t.shards[k] += v
		}
		t.trees = append(t.trees, cl.trees...)
		if t.err == nil {
			t.err = cl.err
		}
	}
	return t
}

// loadMetrics turns the measured windows into the caller-visible metrics
// and the load generator's own gauges.
func (d *driver) loadMetrics(m metricSet) error {
	if len(d.wins) < windows {
		return fmt.Errorf("stream ran out after %d of %d windows: raise the workload's CeilRate", len(d.wins), windows)
	}
	t := d.total()
	var rates, p50s, p99s, rel []float64
	for i := range d.wins {
		w := &d.wins[i]
		rates = append(rates, w.rate())
		p50s = append(p50s, us(percentile(w.admit, 0.50)))
		p99s = append(p99s, us(percentile(w.admit, 0.99)))
		if len(w.release) > 0 {
			rel = append(rel, us(percentile(w.release, 0.50)))
		}
	}
	m.set("requests_per_s", median(rates))
	m.set("admit_p50_us", median(p50s))
	// A window's p99 needs ten samples beyond it; smaller windows pool the
	// whole run instead.
	if len(d.allAdmit)/len(d.wins) >= minP99Count {
		m.set("admit_p99_us", median(p99s))
	} else {
		m.set("admit_p99_us", us(percentile(d.allAdmit, 0.99)))
	}
	m.set("loadgen.admit_p999_us", us(percentile(d.allAdmit, 0.999)))
	if len(rel) > 0 {
		m.set("release_p50_us", median(rel))
	}
	m.set("admitted_share", float64(t.admitted)/float64(t.attempted))
	if t.admitted > 0 {
		m.set("mean_cost", t.cost/float64(t.admitted))
	}
	m.set("failed_share", float64(t.failed)/float64(t.attempted))
	m.set("loadgen.window_spread", (slices.Max(rates)-slices.Min(rates))/median(rates))

	ops := float64(len(d.allAdmit))
	m.set("proc.allocs_per_req", float64(d.memEnd.Mallocs-d.memStart.Mallocs)/ops)
	m.set("proc.alloc_kb_per_req", float64(d.memEnd.TotalAlloc-d.memStart.TotalAlloc)/ops/1024)
	if total := d.gcEnd[1] - d.gcStart[1]; total > 0 {
		m.set("proc.gc_cpu_share", (d.gcEnd[0]-d.gcStart[0])/total)
	}
	if d.w.isDaemon() {
		m.set("daemon.http_429_share", float64(t.overloaded)/float64(t.attempted))
		most := 0
		for _, n := range t.shards {
			if n > most {
				most = n
			}
		}
		if t.admitted > 0 {
			m.set("shard.max_share", float64(most)/float64(t.admitted))
		}
	}
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// median of an empty sample reads 0.
func median(v []float64) float64 {
	m, _ := stats.Percentile(v, 50)
	return m
}
