package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/source"
)

// timedSource wraps a deployment's sample source and times the calls the
// pipeline makes into it: every Block (the per-node synthesis or replay
// work, run in the parallel fan-out) and every PrepareBatch (the serial
// staging hook). It forwards AddSource so ships can still be added. The
// wrapper changes nothing the pipeline sees; TestTimedSourceParity pins
// that.
//
// The pipeline calls Block concurrently for distinct nodes, so the busy
// total and the fan-out window are kept in atomics. EndBatch folds one
// batch's window into the totals and must be called between batches (after
// each Run(SampleBatch) returns).
type timedSource struct {
	inner source.Source
	epoch time.Time

	busyNs  atomic.Int64
	blocks  atomic.Int64
	firstNs atomic.Int64 // earliest Block start in the open batch (ns since epoch), 0 = none
	lastNs  atomic.Int64 // latest Block end in the open batch

	prepareNs int64
	fanoutNs  int64
	batches   int

	// capture keeps copies of the blocks of every captureStride-th node
	// (0 = none) for replaying through fresh detectors afterwards.
	captureStride int
	mu            sync.Mutex
	captured      map[int][]sensor.Sample
}

func newTimedSource(inner source.Source, captureStride int) *timedSource {
	return &timedSource{
		inner:         inner,
		epoch:         time.Now(),
		captureStride: captureStride,
		captured:      map[int][]sensor.Sample{},
	}
}

func (s *timedSource) Rate() float64  { return s.inner.Rate() }
func (s *timedSource) Scale() float64 { return s.inner.Scale() }
func (s *timedSource) NumNodes() int  { return s.inner.NumNodes() }

func (s *timedSource) Block(node, idx int, t0 float64, n int) []sensor.Sample {
	start := time.Since(s.epoch).Nanoseconds()
	b := s.inner.Block(node, idx, t0, n)
	end := time.Since(s.epoch).Nanoseconds()
	s.busyNs.Add(end - start)
	s.blocks.Add(1)
	for {
		f := s.firstNs.Load()
		if (f != 0 && f <= start) || s.firstNs.CompareAndSwap(f, start) {
			break
		}
	}
	for {
		l := s.lastNs.Load()
		if l >= end || s.lastNs.CompareAndSwap(l, end) {
			break
		}
	}
	if s.captureStride > 0 && node%s.captureStride == 0 && len(b) > 0 {
		s.mu.Lock()
		s.captured[node] = append(s.captured[node], b...)
		s.mu.Unlock()
	}
	return b
}

// PrepareBatch forwards the serial staging hook when the wrapped source has
// one; a source without it (a trace replay) costs nothing here.
func (s *timedSource) PrepareBatch(idx int, t0 float64, n int) {
	p, ok := s.inner.(source.BatchPreparer)
	if !ok {
		return
	}
	start := time.Now()
	p.PrepareBatch(idx, t0, n)
	s.prepareNs += time.Since(start).Nanoseconds()
}

// AddSource forwards to the wrapped source. Like the runtime itself it
// panics when the source is an immutable recording.
func (s *timedSource) AddSource(m sensor.SurfaceModel) {
	ap, ok := s.inner.(source.Appender)
	if !ok {
		panic(fmt.Sprintf("sidperf: source %T cannot accept surface sources", s.inner))
	}
	ap.AddSource(m)
}

// EndBatch closes the open batch's fan-out window. The window runs from the
// first Block start to the last Block end of the batch.
func (s *timedSource) EndBatch() {
	f, l := s.firstNs.Swap(0), s.lastNs.Swap(0)
	if f != 0 && l > f {
		s.fanoutNs += l - f
	}
	s.batches++
}

func (s *timedSource) busy() time.Duration    { return time.Duration(s.busyNs.Load()) }
func (s *timedSource) fanout() time.Duration  { return time.Duration(s.fanoutNs) }
func (s *timedSource) prepare() time.Duration { return time.Duration(s.prepareNs) }
func (s *timedSource) blockCount() int64      { return s.blocks.Load() }
func (s *timedSource) samples() map[int][]sensor.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.captured
}
