package sid

import (
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/source"
)

// TestGridSmoke runs a downscaled version of the large-field scaling
// configuration with every scaling feature engaged at once — spectral
// synthesis behind the spatial wake index, duty-cycled sentinels, two-level
// report collection, and a bounded detection history — and requires the
// crossing to be detected with all of them active. The large-field
// measurement is the sidperf grid_crossing workload; this keeps the feature
// interaction under the regular test and race targets.
func TestGridSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Grid = geo.GridSpec{Rows: 8, Cols: 8, Spacing: 25}
	cfg.Seed = 11
	cfg.Synthesis = source.SynthSpectral
	cfg.DutyCycle = 0.2
	cfg.CollectWindow = 30
	cfg.HistoryWindow = 60
	cfg.Hierarchy = DefaultHierarchyConfig()
	cfg.Hierarchy.Enabled = true
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AddShip(crossGridShip(t, cfg, 10, 30))
	if err := rt.Run(60); err != nil {
		t.Fatal(err)
	}
	if len(rt.NodeReports()) == 0 {
		t.Fatal("no node detections with index+hierarchy+bounded history engaged")
	}
	syn, ok := rt.Source().(*source.Synthetic)
	if !ok {
		t.Fatalf("source is %T, not the synthetic field", rt.Source())
	}
	if st := syn.SynthesisStats(); st.IndexNodesOffered == 0 {
		t.Fatal("spatial index never engaged")
	}
	if rt.PeakNodeBytes() <= 0 {
		t.Fatal("peak node bytes not tracked")
	}
	if g := rt.Observability().Registry().Gauge("sid.subheads").Value(); g < 1 {
		t.Fatalf("no sub-cluster heads elected: gauge %g", g)
	}
}
