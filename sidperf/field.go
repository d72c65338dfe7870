package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/sid-wsn/sid/internal/sid"
)

// phase is one stretch of a paced field run: batches up to simulated time
// untilS are offered at rtf simulated seconds per wall second.
type phase struct {
	name   string
	untilS float64
	rtf    float64
}

// fieldPass is what one pass over a field measured. Every latency is
// stamped with its batch's due time as an offset from the measurement's
// start, so tail percentiles can be taken per stretch of the run.
type fieldPass struct {
	simS  float64
	busy  time.Duration // summed wall time of the Run calls
	batch series        // wall time of each Run(SampleBatch) call
	lat   map[string]*series
	det   series    // per node-level detection: due time of its batch → the batch's Run returned
	lagMs []float64 // how late the clock issued a batch it could have issued on time
}

// drivePass advances rt batch by batch through the phases on an open-loop
// clock that starts now. Batch k is due when its last sample would have
// arrived had the field been streaming at the phase's offered speed-up;
// the clock issues it at its due time, or as soon as the previous batch
// returns when the pipeline runs behind. A batch's ingest latency runs
// from its due time to the return of its Run call, so a slow batch also
// charges the wait it imposes on the batches queued behind it. Latencies
// are stamped relative to base. afterBatch (may be nil) runs after each
// batch, outside the timed region.
func drivePass(rt *sid.Runtime, batchS float64, phases []phase, base time.Time, afterBatch func()) (*fieldPass, error) {
	p := &fieldPass{lat: map[string]*series{}}
	start := time.Now()
	if base.IsZero() {
		base = start
	}
	var dueOff time.Duration
	var prevEnd time.Time
	simT := rt.Scheduler().Now()
	for _, ph := range phases {
		lat := &series{}
		p.lat[ph.name] = lat
		for simT+batchS/2 < ph.untilS {
			dueOff += time.Duration(batchS / ph.rtf * float64(time.Second))
			due := start.Add(dueOff)
			if math.IsInf(ph.rtf, 1) {
				due = time.Now()
			}
			waitUntil(due)
			b := time.Now()
			t0 := rt.Scheduler().Now()
			ready := due
			if prevEnd.After(ready) {
				ready = prevEnd
			}
			p.lagMs = append(p.lagMs, ms(b.Sub(ready)))
			if err := rt.Run(batchS); err != nil {
				return nil, err
			}
			e := time.Now()
			prevEnd = e
			at := due.Sub(base)
			p.busy += e.Sub(b)
			p.batch.add(at, ms(e.Sub(b)))
			lat.add(at, ms(e.Sub(due)))
			// Reports of this batch are the tail stamped at or after its
			// start; history eviction only trims the head.
			reps := rt.NodeReports()
			for i := len(reps) - 1; i >= 0 && reps[i].Time >= t0; i-- {
				p.det.add(at, ms(e.Sub(due)))
			}
			simT += batchS
			p.simS += batchS
			if afterBatch != nil {
				afterBatch()
			}
		}
	}
	return p, nil
}

// unpaced is a single phase offered as fast as the pipeline runs: each
// batch is due when the previous one returns.
func unpaced(untilS float64) []phase { return []phase{{"run", untilS, math.Inf(1)}} }

// measurePasses runs fresh passes until the next one would overrun the
// run length; it runs at least one. pass receives the measurement's start,
// which stamps every pass's latencies on one time axis.
func measurePasses(seconds float64, pass func(base time.Time) (*fieldPass, error)) ([]*fieldPass, error) {
	var passes []*fieldPass
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for len(passes) == 0 || time.Since(start)+time.Since(start)/time.Duration(len(passes)) <= limit {
		p, err := pass(start)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// fieldMetrics sets the end-to-end metrics of a field workload from its
// unpaced passes. The realtime factor is the median over the passes, so a
// pass slowed by a neighbour on a shared host does not set it.
// blocksPerSimS is the field's input rate in node-blocks per simulated
// second (every node, every sensing batch).
func fieldMetrics(out *outcome, passes []*fieldPass, blocksPerSimS float64) {
	var rtfs, batch []float64
	for _, p := range passes {
		rtfs = append(rtfs, p.simS/p.busy.Seconds())
		batch = append(batch, p.batch.ms...)
	}
	rtf := median(rtfs)
	out.set("realtime_factor", "x", rtf)
	out.set("capacity_blocks_s", "1/s", rtf*blocksPerSimS)
	out.set("batch_p50_ms", "ms", quantile(batch, 0.5))
}

// fieldLatencies sets the latencies of a paced pass, which the traced run
// reports: on a shared host they spread too far from run to run to gate
// on. Tail percentiles are taken per one-second stretch (see windowed).
func fieldLatencies(out *outcome, p *fieldPass) {
	low, high := p.lat["low"], p.lat["high"]
	out.set("batch_p90_ms", "ms", p.batch.windowed(0.9, 50))
	out.set("ingest_p50_ms.low", "ms", low.q(0.5))
	out.set("ingest_p99_ms.low", "ms", low.windowed(0.99, 50))
	out.set("ingest_p50_ms.high", "ms", high.q(0.5))
	out.set("ingest_p99_ms.high", "ms", high.windowed(0.99, 50))
	out.set("det_e2e_p50_ms", "ms", p.det.q(0.5))
	out.set("det_e2e_p90_ms", "ms", p.det.windowed(0.9, 20))
}

// waitUntil returns at t: it sleeps until shortly before and yields the
// rest, so a request leaves on time instead of a timer wake-up late.
func waitUntil(t time.Time) {
	const spin = 500 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// maxLagMs is how far behind its schedule a generator (the field clock or
// the chunk poster) may end a phase. A generator that ends further behind
// did not offer the load the run reports, and the run is void. Lateness
// along the way is charged to the latencies, which run from due times.
const maxLagMs = 250.0

func checkLag(lagMs []float64, what string) error {
	if n := len(lagMs); n > 0 && lagMs[n-1] > maxLagMs {
		return fmt.Errorf("%s fell behind its schedule: %.0f ms late at the end of the phase", what, lagMs[n-1])
	}
	return nil
}
