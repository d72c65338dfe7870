package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/sid-wsn/sid/internal/cluster"
	"github.com/sid-wsn/sid/internal/detect"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
)

// Per-layer metrics come from outside the program: wall-clock timers around
// calls into public functions (the timedSource wrapper, Run, ServeHTTP,
// DecodeBundle, detect.Detector.Push, cluster.Evaluate) and the program's
// existing counters. Every traced run reports the full set; a layer a
// workload does not exercise reads 0.

// serveLayerNames are the serve-layer metrics, zero on the field workloads.
var serveLayerNames = []struct{ name, unit string }{
	{"serve.post_ms.p50", "ms"}, {"serve.post_ms.p99", "ms"},
	{"serve.decode_ns_per_block", "ns"},
	{"serve.accept_to_confirm_ms.p50", "ms"}, {"serve.accept_to_confirm_ms.p99", "ms"},
	{"serve.rejected_busy", "count"}, {"serve.events_dropped", "count"},
	{"serve.queue_len_max", "count"},
}

// layerInputs is what a traced field pass leaves for the per-layer view.
type layerInputs struct {
	cfg     sid.Config
	rt      *sid.Runtime
	ts      *timedSource
	prof    *obs.Profiler
	pass    *fieldPass // the traced pass
	plain   *fieldPass // the same pass untraced, for the tracing overhead
	workers int
	syn     *source.Synthetic // nil unless the source synthesizes
	heapMB  float64
	// unpassed is the wall time of batches the wrapper and the profiler saw
	// outside the traced pass (the priming batch of set-up).
	unpassed time.Duration
}

// fill writes the field-layer metrics (source, parallel, sid, detect, wsn,
// cluster, memory, generator, tracing) and cross-checks the outside split
// against the existing obs.Profiler stages.
func (l *layerInputs) fill(out *outcome) error {
	busy, fan, prep := l.ts.busy(), l.ts.fanout(), l.ts.prepare()
	blocks := l.ts.blockCount()
	out.set("source.busy_s", "s", busy.Seconds())
	out.set("source.blocks", "count", float64(blocks))
	out.set("source.ns_per_block", "ns", ratio(float64(busy.Nanoseconds()), float64(blocks)))
	out.set("source.fanout_wall_s", "s", fan.Seconds())
	out.set("parallel.efficiency", "ratio", ratio(busy.Seconds(), fan.Seconds()*float64(l.workers)))
	out.set("source.prepare_s", "s", prep.Seconds())
	var hit, skip float64
	if l.syn != nil {
		st := l.syn.SynthesisStats()
		hit = st.IndexHitRate()
		skip = ratio(float64(st.WakeBlocksSkipped), float64(st.WakeBlocksChecked))
	}
	out.set("source.index_hit_rate", "ratio", hit)
	out.set("source.wake_skip_ratio", "ratio", skip)
	consume := l.pass.busy + l.unpassed - fan - prep
	out.set("sid.consume_s", "s", consume.Seconds())

	if err := detectReplay(out, l.cfg.Detect, l.ts.samples()); err != nil {
		return err
	}

	ns := l.rt.Network().Stats()
	out.set("wsn.sent", "count", float64(ns.Sent))
	out.set("wsn.lost", "count", float64(ns.Lost))
	out.set("wsn.retransmissions", "count", float64(ns.Retransmissions))
	out.set("wsn.delivery_ratio", "ratio", ratio(float64(ns.Delivered), float64(ns.Sent)))

	formed := l.rt.ClustersFormed()
	out.set("sid.clusters_formed", "count", float64(formed))
	out.set("sid.clusters_cancelled", "count", float64(l.rt.Cancelled()))
	out.set("sid.sink_reports", "count", float64(len(l.rt.SinkReports())))
	out.set("sid.confirm_ratio", "ratio", ratio(float64(len(l.rt.SinkReports())), float64(formed)))
	out.set("sid.failovers", "count", float64(l.rt.Failovers()))
	speeds := 0
	for _, s := range l.rt.SinkReports() {
		if s.HasSpeed {
			speeds++
		}
	}
	out.set("speed.estimates", "count", float64(speeds))
	out.set("cluster.evaluate_us", "us", evaluateReplay(l.rt.Evaluations(), l.cfg.Cluster))

	out.set("sid.peak_node_bytes", "bytes", float64(l.rt.PeakNodeBytes()))
	out.set("sid.heap_per_node_kb", "KiB", l.heapMB*1024/float64(l.cfg.Grid.NumNodes()))
	out.set("gen.lag_p99_ms", "ms", quantile(append([]float64(nil), l.pass.lagMs...), 0.99))
	out.set("trace.overhead_frac", "ratio", l.pass.busy.Seconds()/l.plain.busy.Seconds()-1)
	for _, s := range serveLayerNames {
		out.set(s.name, s.unit, 0)
	}
	return profilerCheck(out, l.prof, fan+prep, consume, l.ts.batches)
}

// profilerCheck compares the outside split with the program's own stage
// profiler. The profiler's "synthesis" span covers PrepareBatch and the
// parallel fan-out; its "detect" span covers the serial consume loop, which
// the outside consume time contains together with the scheduler's message
// events. A disagreement beyond the tolerance fails the run: one of the two
// measures something else than it claims.
func profilerCheck(out *outcome, prof *obs.Profiler, synthOutside, consume time.Duration, batches int) error {
	var synth, det time.Duration
	for _, st := range prof.Snapshot() {
		switch st.Stage {
		case "synthesis":
			synth = time.Duration(st.TotalNs)
		case "detect":
			det = time.Duration(st.TotalNs)
		}
	}
	out.set("profiler.synthesis_s", "s", synth.Seconds())
	out.set("profiler.detect_s", "s", det.Seconds())
	// The outside window omits the fan-out's goroutine start-up and join,
	// so it runs short of the profiler span by up to a few tens of µs per
	// batch, which is most of the gap where a batch's blocks are memory
	// copies.
	gap := synth - synthOutside
	out.set("trace.synthesis_gap_frac", "ratio", ratio(gap.Seconds(), synth.Seconds()))
	out.set("trace.detect_share_of_consume", "ratio", ratio(det.Seconds(), consume.Seconds()))
	if slack := synth/10 + time.Duration(batches)*50*time.Microsecond; gap < -synth/50 || gap > slack {
		return fmt.Errorf("outside synthesis split %.4f s disagrees with the profiler's %.4f s",
			synthOutside.Seconds(), synth.Seconds())
	}
	if det > consume+consume/50 {
		return fmt.Errorf("profiler detect stage %.3f s exceeds the outside consume time %.3f s",
			det.Seconds(), consume.Seconds())
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// detectReplay pushes recorded node streams through fresh detectors built
// from the deployment's detect config and reports the per-sample cost, the
// number of completed anomaly windows, and the share of windows that
// produced a node report.
func detectReplay(out *outcome, cfg detect.Config, streams map[int][]sensor.Sample) error {
	nodes := make([]int, 0, len(streams))
	for n := range streams {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	var samples, windows, reports int
	var busy time.Duration
	for _, n := range nodes {
		d, err := detect.New(cfg)
		if err != nil {
			return err
		}
		st := streams[n]
		t0 := time.Now()
		for _, s := range st {
			ws, done := d.Push(s.T, float64(s.Z))
			if !done {
				continue
			}
			windows++
			if d.Detected(ws) {
				reports++
			}
		}
		busy += time.Since(t0)
		samples += len(st)
	}
	if samples == 0 {
		return errors.New("detect replay: no samples captured")
	}
	out.set("detect.ns_per_sample", "ns", float64(busy.Nanoseconds())/float64(samples))
	out.set("detect.windows", "count", float64(windows))
	out.set("detect.report_ratio", "ratio", ratio(float64(reports), float64(windows)))
	return nil
}

// evaluateReplay re-runs the correlation test on every evaluated cluster
// the runtime still holds and returns the mean wall time per call in µs
// (0 when no evaluation survived the history window).
func evaluateReplay(evals []sid.Evaluation, cfg cluster.Config) float64 {
	const reps = 20
	var calls int
	var busy time.Duration
	for _, e := range evals {
		if len(e.Reports) == 0 {
			continue
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			_, _ = cluster.Evaluate(e.Reports, cfg) // only the cost is measured
		}
		busy += time.Since(t0)
		calls += reps
	}
	if calls == 0 {
		return 0
	}
	return float64(busy.Nanoseconds()) / float64(calls) / 1e3
}

// runDigest fingerprints a run's deterministic outputs: confirmed
// detections, protocol tallies, radio statistics and the surviving
// node-report history.
func runDigest(rt *sid.Runtime) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%d|%d|%+v|", rt.SinkReports(), rt.ClustersFormed(), rt.Cancelled(), rt.Network().Stats())
	fmt.Fprintf(h, "%v", rt.NodeReports())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestDir holds the digests earlier runs recorded, keyed by workload,
// seed and benchmark binary, inside the checkout's build directory.
const digestDir = ".bench_build/sidperf/digest"

// checkDigest demands that every run of one seed by one binary produce the
// same outputs: the first run records its digest, later runs compare.
func checkDigest(workload string, seed int64, digest string) error {
	exe, err := exeHash()
	if err != nil {
		return err
	}
	path := filepath.Join(digestDir, fmt.Sprintf("%s-%d-%s", workload, seed, exe))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			return fmt.Errorf("detection digest %s differs from %s recorded by an earlier run of seed %d",
				digest, prev, seed)
		}
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(digestDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(digest), 0o644)
	default:
		return err
	}
}

func exeHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}
