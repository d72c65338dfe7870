package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestTimedSourceParity pins that the traced run measures the same program:
// a downscaled grid_crossing driven through the timing wrapper in
// Run(SampleBatch) segments must produce node and sink reports
// bit-identical to a plain single Run with the runtime's own source.
func TestTimedSourceParity(t *testing.T) {
	const seed, dur = 3, 90.0
	cfg := gridConfig(12, 12, 2)
	cfg.HistoryWindow = 0 // compare complete histories

	plain, err := newGridRuntime(cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(dur); err != nil {
		t.Fatal(err)
	}

	syn, err := gridSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTimedSource(syn, 4)
	wrapped, err := newGridRuntime(cfg, seed, ts)
	if err != nil {
		t.Fatal(err)
	}
	unpaced := []phase{{"low", dur, math.Inf(1)}}
	if _, err := drivePass(wrapped, cfg.SampleBatch, unpaced, time.Time{}, ts.EndBatch); err != nil {
		t.Fatal(err)
	}

	if len(plain.NodeReports()) == 0 {
		t.Fatal("the crossing produced no node reports; parity would be vacuous")
	}
	if !reflect.DeepEqual(plain.NodeReports(), wrapped.NodeReports()) {
		t.Fatalf("node reports diverge: %d plain vs %d wrapped", len(plain.NodeReports()), len(wrapped.NodeReports()))
	}
	if !reflect.DeepEqual(plain.SinkReports(), wrapped.SinkReports()) {
		t.Fatalf("sink reports diverge: %v vs %v", plain.SinkReports(), wrapped.SinkReports())
	}
	if runDigest(plain) != runDigest(wrapped) {
		t.Fatal("run digests diverge")
	}
	if ts.blockCount() == 0 || ts.fanout() <= 0 || ts.prepare() <= 0 || len(ts.samples()) == 0 {
		t.Fatalf("wrapper measured nothing: %d blocks, fan-out %v, prepare %v, %d captured streams",
			ts.blockCount(), ts.fanout(), ts.prepare(), len(ts.samples()))
	}
}
