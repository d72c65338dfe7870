package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/sid"
	"github.com/sid-wsn/sid/internal/source"
	"github.com/sid-wsn/sid/internal/wake"
)

// grid_crossing: a 64×64 field built with the large-field recipe of
// cmd/sidbench (spectral synthesis behind the spatial wake index,
// two-level report collection, 20% sentinel duty cycle, 30 s collection
// window, 60 s bounded history), Workers = GOMAXPROCS, crossed once by a
// 10 kn intruder through its centre. The seed picks the heading and the
// crossing time. Synthesis takes most of the time; there is no serve layer.
const (
	gridRows, gridCols = 64, 64
	// Set-up primes the field with its first batch, which renders every
	// node's first 20.48 s spectral chunk. Then the low phase runs to
	// 20.5 s, ending with the batch that renders the second chunk, and the
	// high phase to 40.5 s, when the crossing's detections arrive.
	gridSimS          = 40.5
	gridSwitchS       = 20.5
	gridLowRTF        = 1.5 // offered speed-ups, about 1/5 and 1/3 of the
	gridHighRTF       = 2.5 // realtime factor a 2-CPU host sustains
	gridSetups        = 3
	gridCaptureStride = 64 // every 64th node's samples feed the detect replay
)

// gridConfig is the cmd/sidbench large-field recipe at the given size.
func gridConfig(rows, cols, workers int) sid.Config {
	cfg := sid.DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: rows, Cols: cols, Spacing: 25}
	cfg.Seed = 11
	cfg.Synthesis = source.SynthSpectral
	cfg.DutyCycle = 0.2
	cfg.CollectWindow = 30
	cfg.HistoryWindow = 60
	cfg.Workers = workers
	cfg.Hierarchy = sid.DefaultHierarchyConfig()
	cfg.Hierarchy.Enabled = true
	return cfg
}

// gridShip is the seeded intruder: 10 kn through the field centre, heading
// 75–105° from the row axis, wake front at the centre 25–35 s in.
func gridShip(cfg sid.Config, seed int64) (*wake.Ship, error) {
	rng := rand.New(rand.NewSource(seed))
	heading := 75 + 30*rng.Float64()
	crossAt := 25 + 10*rng.Float64()
	return wake.CrossingShip(cfg.Grid.Center(), 10, heading, 0, crossAt, 12)
}

// newGridRuntime builds the field. A nil src lets the runtime build its own
// synthetic source, exactly as a deployment does.
func newGridRuntime(cfg sid.Config, seed int64, src source.Source) (*sid.Runtime, error) {
	cfg.Source = src
	rt, err := sid.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	ship, err := gridShip(cfg, seed)
	if err != nil {
		return nil, err
	}
	rt.AddShip(ship)
	return rt, nil
}

// gridSynthetic builds the synthetic source the runtime would build for cfg.
func gridSynthetic(cfg sid.Config) (*source.Synthetic, error) {
	return source.NewSynthetic(source.SyntheticConfig{
		Positions:   cfg.Grid.Positions(),
		Hs:          cfg.Hs,
		Tp:          cfg.Tp,
		DriftRadius: cfg.DriftRadius,
		Seed:        cfg.Seed,
		Synthesis:   cfg.Synthesis,
	})
}

func gridPhases() []phase {
	return []phase{{"low", gridSwitchS, gridLowRTF}, {"high", gridSimS, gridHighRTF}}
}

func runGridCrossing(o runOpts, host hostFacts) (*outcome, error) {
	cfg := gridConfig(gridRows, gridCols, host.Workers)
	out := &outcome{}
	heap := watchHeap()
	var setups []float64
	// build sets up a field: construction plus the priming batch, timed.
	// It also returns the priming batch's own wall time.
	build := func(c sid.Config, src source.Source) (*sid.Runtime, time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		rt, err := newGridRuntime(c, o.seed, src)
		if err != nil {
			return nil, 0, err
		}
		t1 := time.Now()
		if err := rt.Run(c.SampleBatch); err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		return rt, time.Since(t1), nil
	}
	var digest string
	// pass measures one fresh field and gates its outputs.
	pass := func(phases []phase, base time.Time) (*fieldPass, *sid.Runtime, error) {
		rt, _, err := build(cfg, nil)
		if err != nil {
			return nil, nil, err
		}
		p, err := drivePass(rt, cfg.SampleBatch, phases, base, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := checkLag(p.lagMs, "the batch clock"); err != nil {
			return nil, nil, err
		}
		d := runDigest(rt)
		switch {
		case digest == "":
			if err := gridGate(rt, o.seed, d); err != nil {
				return nil, nil, err
			}
			digest = d
		case d != digest:
			return nil, nil, fmt.Errorf("pass digest %s differs from the run's first pass %s", d, digest)
		}
		out.attempted += p.batch.n()
		return p, rt, nil
	}

	if !o.trace {
		var last *sid.Runtime
		passes, err := measurePasses(o.seconds, func(base time.Time) (*fieldPass, error) {
			last = nil
			p, rt, err := pass(unpaced(gridSimS), base)
			last = rt
			return p, err
		})
		if err != nil {
			return nil, err
		}
		for len(setups) < gridSetups {
			if _, _, err := build(cfg, nil); err != nil {
				return nil, err
			}
		}
		fieldMetrics(out, passes, float64(cfg.Grid.NumNodes())/cfg.SampleBatch)
		out.set("setup_s", "s", median(setups))
		out.set("heap_peak_mb", "MiB", heap.Peak())
		logGrid(last, passes[0])
		runtime.KeepAlive(last)
		return out, nil
	}

	// Traced run: a paced pass, then the same pass with every source call
	// timed and the existing stage profiler attached.
	plain, rt, err := pass(gridPhases(), time.Time{})
	if err != nil {
		return nil, err
	}
	runtime.KeepAlive(rt)
	rt = nil
	heap.Peak()
	syn, err := gridSynthetic(cfg)
	if err != nil {
		return nil, err
	}
	ts := newTimedSource(syn, gridCaptureStride)
	prof := obs.NewProfiler()
	tcfg := cfg
	tcfg.Obs = obs.New()
	tcfg.Obs.SetProfiler(prof)
	theap := watchHeap()
	trt, prime, err := build(tcfg, ts)
	if err != nil {
		return nil, err
	}
	ts.EndBatch()
	tpass, err := drivePass(trt, cfg.SampleBatch, gridPhases(), time.Time{}, ts.EndBatch)
	if err != nil {
		return nil, err
	}
	if d := runDigest(trt); d != digest {
		return nil, fmt.Errorf("traced pass diverged from the untraced pass (digest %s vs %s)", d, digest)
	}
	lm := layerInputs{
		cfg: cfg, rt: trt, ts: ts, prof: prof, pass: tpass, plain: plain, workers: host.Workers,
		syn: syn, heapMB: theap.Peak(), unpassed: prime,
	}
	if err := lm.fill(out); err != nil {
		return nil, err
	}
	fieldLatencies(out, plain)
	runtime.KeepAlive(trt)
	return out, nil
}

// gridGate is the grid_crossing correctness gate: the wake must be
// detected (clusters formed) and the run's detection digest must equal the
// one recorded by every earlier run of this seed in this checkout.
func gridGate(rt *sid.Runtime, seed int64, digest string) error {
	if rt.ClustersFormed() == 0 {
		return fmt.Errorf("the crossing formed no cluster; the wake went undetected")
	}
	return checkDigest("grid_crossing", seed, digest)
}

func logGrid(rt *sid.Runtime, p *fieldPass) {
	logf("grid_crossing: %.0f s simulated, %d clusters formed, %d cancelled, %d confirmations",
		p.simS, rt.ClustersFormed(), rt.Cancelled(), len(rt.SinkReports()))
	for _, s := range rt.SinkReports() {
		if s.HasSpeed {
			logf("  confirmed at %.1f s: C=%.2f, speed %.2f kn (truth 10 kn)", s.Time, s.C, geo.ToKnots(s.Speed))
		} else {
			logf("  confirmed at %.1f s: C=%.2f, no speed estimate", s.Time, s.C)
		}
	}
}
