// Command sidperf is the SID benchmark. It drives the repository's public
// packages with seeded, generated inputs and prints one JSON result line:
//
//	sidperf --workload grid_crossing --seed 1 --seconds 20 --trace 0
//
// Three workloads stress different layers:
//
//   - grid_crossing: a 64×64 spectral field with one seeded 10 kn crossing;
//     synthesis dominates, there is no serve layer.
//   - replay_strait: a 16×16 field with six staggered crossings, recorded
//     once and replayed from memory; detect and wsn/sim dominate.
//   - serve_open: an in-process detection server fed open-loop by a few
//     hundred tenants; the serve layers and queueing dominate.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate run carries the per-layer metrics, all taken from outside the
// program by timing calls into its public functions and reading its
// existing counters. Every run first passes its workload's correctness
// gate; a failing gate exits non-zero without a result. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are the command-line inputs every workload receives.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload hands back: its counts and its metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(runOpts, hostFacts) (*outcome, error){
	"grid_crossing": runGridCrossing,
	"replay_strait": runReplayStrait,
	"serve_open":    runServeOpen,
}

func main() {
	workload := flag.String("workload", "", "workload name: grid_crossing, replay_strait or serve_open")
	seed := flag.Int64("seed", 1, "input seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 20, "measurement length in wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0|1"))
	}
	host, err := readHost()
	if err != nil {
		fail(err)
	}
	logf("host: num_cpu=%d gomaxprocs=%d workers=%d go=%s", host.NumCPU, host.GOMAXPROCS, host.Workers, host.GoVersion)
	out, err := run(runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}, host)
	if err != nil {
		fail(fmt.Errorf("%s seed %d: %w", *workload, *seed, err))
	}
	if out.attempted < 1 {
		fail(fmt.Errorf("%s: nothing attempted", *workload))
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail(fmt.Errorf("%s: metric %s is %v", *workload, name, m.Value))
		}
	}
	line, err := json.Marshal(result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sidperf:", err)
	os.Exit(1)
}

// logf writes an informational line to stderr; stdout carries only the
// result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// hostFacts are recorded with every result set. Workers is the parallelism
// the workloads request (pipeline Workers, serve Workers).
type hostFacts struct {
	NumCPU     int
	GOMAXPROCS int
	Workers    int
	GoVersion  string
}

// readHost records the host facts and refuses to measure when the
// requested parallelism exceeds the CPUs the host has: a speed-up recorded
// under such a setting would not be a speed-up of this host.
func readHost() (hostFacts, error) {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	h.Workers = h.GOMAXPROCS
	if h.GOMAXPROCS > h.NumCPU || h.Workers > h.NumCPU {
		return h, fmt.Errorf("refusing to record: GOMAXPROCS=%d, Workers=%d exceed NumCPU=%d",
			h.GOMAXPROCS, h.Workers, h.NumCPU)
	}
	return h, nil
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle value of xs, or the mean of the two middle
// values when their number is even. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	sort.Float64s(xs)
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapWatch samples the live heap (as marked by the last GC) in the
// background; Peak is the largest value seen. Live-after-GC is used instead
// of the allocated heap so the figure reflects retained state, not GC
// pacing.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// Peak forces a collection (so state still referenced by the caller is
// counted), stops the sampler and returns the peak in MiB.
func (h *heapWatch) Peak() float64 {
	runtime.GC()
	h.sample()
	close(h.stop)
	h.done.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
