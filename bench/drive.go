package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/randx"
)

// driver owns the generator side of one server's life: one request stream
// and one keep-alive connection per client, and the list of mutations the
// server acknowledged, which is what the correctness gate rebuilds from.
type driver struct {
	w      workloadSpec
	seed   uint64
	gens   [clients]*opGen
	conns  [clients]*conn
	acked  [clients][]op
	nextOp atomic.Int64
	// firstErr keeps the first failed request for the report.
	errOnce  sync.Once
	firstErr error
}

func newDriver(w workloadSpec, base *core.Instance, seed uint64, url string, tr *tracer) *driver {
	d := &driver{w: w, seed: seed}
	for k := range d.gens {
		d.gens[k] = newOpGen(w, base, seed, k)
		d.conns[k] = newConn(url, tr)
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.conns {
		c.close()
	}
}

// sample is one answered request: when it was due (open loop) or sent
// (closed loop), from the start of the phase, and how long the client
// waited from then.
type sample struct {
	AtNS int64
	MS   float64
}

// phaseResult is what one phase measured.
type phaseResult struct {
	Lat       [numClasses][]sample
	FailAt    []int64   // when each failed request was due or sent, ns
	Lag       []float64 // ms an idle connection sent late, open loop only
	Attempted int
	Failed    int
	SLOMiss   int
	Elapsed   time.Duration
}

// merge adds what o measured, as if o had started at offset into r.
func (r *phaseResult) merge(o *phaseResult, offset time.Duration) {
	for c := range r.Lat {
		for _, s := range o.Lat[c] {
			r.Lat[c] = append(r.Lat[c], sample{AtNS: s.AtNS + int64(offset), MS: s.MS})
		}
	}
	for _, at := range o.FailAt {
		r.FailAt = append(r.FailAt, at+int64(offset))
	}
	r.Lag = append(r.Lag, o.Lag...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.SLOMiss += o.SLOMiss
	r.Elapsed += o.Elapsed
}

func (r *phaseResult) completed() int { return r.Attempted - r.Failed }

// windowed cuts the phase into equal windows by when each request was
// due, takes the q-quantile of every window's latencies and returns the
// median of those. Windows in which nothing was due are left out.
func windowed(samples []sample, dur time.Duration, windows int, q float64) float64 {
	buckets := make([][]float64, windows)
	for _, s := range samples {
		i := min(int(s.AtNS*int64(windows)/int64(dur)), windows-1)
		buckets[i] = append(buckets[i], s.MS)
	}
	var stats []float64
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			stats = append(stats, percentile(b, q))
		}
	}
	return median(stats)
}

// send issues stream j's request o on connection k and books the outcome.
// from is the instant latency counts from, start the beginning of the
// phase.
func (d *driver) send(ctx context.Context, j, k int, o op, from, start time.Time, r *phaseResult) {
	err := d.conns[k].do(ctx, d.nextOp.Add(1), o)
	ms := float64(time.Since(from)) / 1e6
	c := o.Kind.class()
	r.Attempted++
	if err != nil {
		r.Failed++
		r.SLOMiss++
		r.FailAt = append(r.FailAt, int64(from.Sub(start)))
		d.errOnce.Do(func() { d.firstErr = err })
		return
	}
	r.Lat[c] = append(r.Lat[c], sample{AtNS: int64(from.Sub(start)), MS: ms})
	if ms > d.w.limitMS(c) {
		r.SLOMiss++
	}
	if c == classWrite {
		d.acked[j] = append(d.acked[j], o)
	}
}

// arrivals is one connection's seeded Poisson clock.
type arrivals struct {
	rng    *rand.Rand
	rateHz float64
	dueNS  int64
}

// next advances the clock and returns when the next request is due, in ns
// from the start of the phase.
func (a *arrivals) next() int64 {
	a.dueNS += int64(a.rng.ExpFloat64() / a.rateHz * 1e9)
	return a.dueNS
}

// newArrivals is connection k's clock for the phase-th open-loop phase of
// a run, at rateHz over all connections.
func newArrivals(w workloadSpec, seed uint64, k, phase int, rateHz float64) *arrivals {
	return &arrivals{
		rng:    randx.Stream(seed, fmt.Sprintf("bench/%s/conn%d/phase%d", w.Name, k, phase)),
		rateHz: rateHz / connections,
	}
}

// openLoop sends seeded Poisson arrivals at rateHz for dur over
// `connections` keep-alive connections. Connection k carries the request
// streams k, k+connections, ... and draws which of them each arrival
// belongs to. A request is timed from the instant it was due, not from
// when the connection got to it, so a stall is charged to every request
// queued behind it. Requests due inside the phase are all sent, however
// late. phase numbers the open-loop phases of a run, so each has a
// schedule of its own.
func (d *driver) openLoop(ctx context.Context, phase int, rateHz float64, dur time.Duration) *phaseResult {
	return d.run(connections, func(k int, start time.Time, r *phaseResult) {
		clock := newArrivals(d.w, d.seed, k, phase, rateHz)
		for {
			dueNS := clock.next()
			if dueNS > int64(dur) || ctx.Err() != nil {
				return
			}
			j := k + connections*clock.rng.Intn(clients/connections)
			o := d.gens[j].next()
			due := start.Add(time.Duration(dueNS))
			if time.Until(due) > 0 {
				sleepUntil(due)
				r.Lag = append(r.Lag, float64(time.Since(due))/1e6)
			}
			d.send(ctx, j, k, o, due, start, r)
		}
	})
}

// spinLead is how long before a request is due its connection stops
// sleeping and polls the clock instead.
const spinLead = 200 * time.Microsecond

// sleepUntil returns at due, as closely as the machine allows. time.Sleep
// will not do: the Go runtime parks an idle process in epoll_wait, whose
// timeout counts whole milliseconds, so a sleeping connection would send
// up to a millisecond late — several times what a point read takes.
// nanosleep uses the kernel's high-resolution timers; a signal (the
// runtime preempts with them) only cuts a sleep short, hence the loop. The
// last spinLead is polled away. Polling longer would send more punctually
// but takes the processor from the server: the reference machine's two
// CPUs share one core's worth of cycles (README.md).
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due) - spinLead
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: sleep again for what is left
	}
	for time.Now().Before(due) {
	}
}

// closedLoop has each of the `clients` clients send its stream's next
// request on its own connection as soon as the previous one is answered,
// for dur: saturation throughput.
func (d *driver) closedLoop(ctx context.Context, dur time.Duration) *phaseResult {
	return d.run(clients, func(k int, start time.Time, r *phaseResult) {
		end := start.Add(dur)
		for time.Now().Before(end) && ctx.Err() == nil {
			d.send(ctx, k, k, d.gens[k].next(), time.Now(), start, r)
		}
	})
}

// run executes one phase body on each of n goroutines and merges what
// they booked.
func (d *driver) run(n int, body func(k int, start time.Time, r *phaseResult)) *phaseResult {
	parts := make([]phaseResult, n)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range parts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			body(k, start, &parts[k])
		}(k)
	}
	wg.Wait()
	total := &phaseResult{}
	for k := range parts {
		total.merge(&parts[k], 0)
	}
	total.Elapsed = time.Since(start)
	sort.Float64s(total.Lag)
	return total
}

func (d *driver) failure() error {
	if d.firstErr != nil {
		return fmt.Errorf("first failed request: %w", d.firstErr)
	}
	return nil
}
