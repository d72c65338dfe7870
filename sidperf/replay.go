package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wake"
	"github.com/sid-wsn/sid/internal/wsn"
)

// replay_strait: a 16×16 strait with six staggered crossings at seeded
// headings and 8–14 kn, 20% radio loss under the reliable per-hop
// transport, head failover and the byzantine defenses on. The field is
// synthesized and recorded once (input generation, untimed); every measured
// pass replays the recording from memory through a source.Trace, the
// paper's offline sea-trace mode. No synthesis runs while measured, so the
// time goes to detect/dsp and to the protocol, radio and scheduler.
const (
	straitRows, straitCols = 16, 16
	straitSimS             = 600.0
	straitSwitchS          = 300.0
	straitLowRTF           = 40.0 // about 1/4 and 1/3 of the realtime factor
	straitHighRTF          = 60.0 // a 2-CPU host sustains
	straitCrossings        = 6
	straitSetups           = 7
	straitCaptureStride    = 8
)

// straitConfig is the strait deployment. Its sea, mooring drift and radio
// loss process are fixed; the run's seed varies the traffic crossing it.
func straitConfig(workers int) sid.Config {
	cfg := sid.DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: straitRows, Cols: straitCols, Spacing: 25}
	cfg.Seed = 7
	cfg.Synthesis = source.SynthSpectral
	cfg.Radio.LossProb = 0.2
	cfg.Radio.Reliable = wsn.DefaultReliableConfig()
	cfg.Failover = sid.DefaultFailoverConfig()
	cfg.Defense = sid.DefaultDefenseConfig()
	cfg.Workers = workers
	return cfg
}

// straitShips are the seeded crossings, one every 80 s from 40 s on. They
// are stratified so every seed offers the same mix: the i-th crossing's
// heading lies in the i-th of six 20° bands between 30° and 150°, its
// speed in the i-th of six 1 kn bands between 8 and 14 kn, the bands
// paired by a seeded shuffle; each sails within 80 m of the centre.
func straitShips(cfg sid.Config, seed int64) ([]*wake.Ship, error) {
	rng := rand.New(rand.NewSource(seed))
	speedBand := rng.Perm(straitCrossings)
	var ships []*wake.Ship
	for i := 0; i < straitCrossings; i++ {
		heading := 30 + 20*(float64(i)+rng.Float64())
		knots := 8 + float64(speedBand[i]) + rng.Float64()
		offset := -80 + 160*rng.Float64()
		s, err := wake.CrossingShip(cfg.Grid.Center(), knots, heading, offset, 40+80*float64(i), 12)
		if err != nil {
			return nil, err
		}
		ships = append(ships, s)
	}
	return ships, nil
}

// straitRecording synthesizes and records the strait once, returning the
// recording and the recorded run's confirmed detections.
func straitRecording(cfg sid.Config, seed int64) (*source.Recording, []sid.SinkReport, error) {
	rec := &source.Recording{}
	cfg.RecordTo = rec
	rt, err := sid.NewRuntime(cfg)
	if err != nil {
		return nil, nil, err
	}
	ships, err := straitShips(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range ships {
		rt.AddShip(s)
	}
	if err := rt.Run(straitSimS); err != nil {
		return nil, nil, err
	}
	if err := rec.Err(); err != nil {
		return nil, nil, err
	}
	return rec, rt.SinkReports(), nil
}

// newStraitReplay builds a fresh replay deployment over the recording. wrap
// (may be nil) wraps the trace source before the runtime sees it.
func newStraitReplay(cfg sid.Config, rec *source.Recording, wrap func(source.Source) source.Source) (*sid.Runtime, error) {
	tr, err := rec.Source()
	if err != nil {
		return nil, err
	}
	cfg.Source = tr
	if wrap != nil {
		cfg.Source = wrap(tr)
	}
	return sid.NewRuntime(cfg)
}

func straitPhases() []phase {
	return []phase{{"low", straitSwitchS, straitLowRTF}, {"high", straitSimS, straitHighRTF}}
}

func runReplayStrait(o runOpts, host hostFacts) (*outcome, error) {
	cfg := straitConfig(host.Workers)
	t0 := time.Now()
	rec, want, err := straitRecording(cfg, o.seed)
	if err != nil {
		return nil, fmt.Errorf("recording: %w", err)
	}
	logf("replay_strait: recorded %.0f s in %.1f s; %d confirmations", straitSimS, time.Since(t0).Seconds(), len(want))
	runtime.GC()
	heap := watchHeap()
	// Set-up: building a replay deployment over the in-memory recording.
	var setups []float64
	for i := 0; i < straitSetups; i++ {
		t := time.Now()
		if _, err := newStraitReplay(cfg, rec, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out := &outcome{}
	gate := func(rt *sid.Runtime) error {
		if len(rt.NodeReports()) == 0 {
			return fmt.Errorf("replay produced no node detections; the comparison would be vacuous")
		}
		if !reflect.DeepEqual(rt.SinkReports(), want) {
			return fmt.Errorf("replayed detections differ from the recording run's (%d vs %d)",
				len(rt.SinkReports()), len(want))
		}
		return nil
	}
	// pass replays the recording once through a fresh deployment.
	pass := func(phases []phase, base time.Time) (*fieldPass, *sid.Runtime, error) {
		t := time.Now()
		rt, err := newStraitReplay(cfg, rec, nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		p, err := drivePass(rt, cfg.SampleBatch, phases, base, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := gate(rt); err != nil {
			return nil, nil, err
		}
		if err := checkLag(p.lagMs, "the batch clock"); err != nil {
			return nil, nil, err
		}
		out.attempted += p.batch.n()
		return p, rt, nil
	}
	if !o.trace {
		var last *sid.Runtime
		passes, err := measurePasses(o.seconds, func(base time.Time) (*fieldPass, error) {
			p, rt, err := pass(unpaced(straitSimS), base)
			last = rt
			return p, err
		})
		if err != nil {
			return nil, err
		}
		fieldMetrics(out, passes, float64(cfg.Grid.NumNodes())/cfg.SampleBatch)
		out.set("setup_s", "s", median(setups))
		out.set("heap_peak_mb", "MiB", heap.Peak())
		runtime.KeepAlive(rec)
		logf("replay_strait: %d passes, %d clusters formed, %d cancelled, %d frames sent",
			len(passes), last.ClustersFormed(), last.Cancelled(), last.Network().Stats().Sent)
		return out, nil
	}

	// Traced run: a paced replay, then the same replay through the timing
	// wrapper with the existing stage profiler attached.
	plain, _, err := pass(straitPhases(), time.Time{})
	if err != nil {
		return nil, err
	}
	heap.Peak()

	var ts *timedSource
	prof := obs.NewProfiler()
	tcfg := cfg
	tcfg.Obs = obs.New()
	tcfg.Obs.SetProfiler(prof)
	runtime.GC()
	theap := watchHeap()
	trt, err := newStraitReplay(tcfg, rec, func(s source.Source) source.Source {
		ts = newTimedSource(s, straitCaptureStride)
		return ts
	})
	if err != nil {
		return nil, err
	}
	tp, err := drivePass(trt, cfg.SampleBatch, straitPhases(), time.Time{}, ts.EndBatch)
	if err != nil {
		return nil, err
	}
	if err := gate(trt); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	lm := layerInputs{
		cfg: cfg, rt: trt, ts: ts, prof: prof, pass: tp, plain: plain, workers: host.Workers,
		heapMB: theap.Peak(),
	}
	if err := lm.fill(out); err != nil {
		return nil, err
	}
	fieldLatencies(out, plain)
	runtime.KeepAlive(rec)
	return out, nil
}
