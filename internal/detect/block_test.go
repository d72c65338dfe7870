package detect

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/sid-wsn/sid/internal/geo"
)

// sameWindow reports whether two windows agree bit for bit (NaN onsets
// included).
func sameWindow(a, b WindowStat) bool {
	fa := []float64{a.Start, a.End, a.AnomalyFreq, a.Energy, a.Onset, a.Threshold, a.Mean, a.Std}
	fb := []float64{b.Start, b.End, b.AnomalyFreq, b.Energy, b.Onset, b.Threshold, b.Mean, b.Std}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Crossings == b.Crossings
}

// pushAll runs z through Push sample by sample and returns every completed
// window, each tagged with the index of the sample that closed it.
func pushAll(t *testing.T, z []float64) []Win {
	t.Helper()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out []Win
	for i, v := range z {
		if ws, ok := d.Push(float64(i)/50, v); ok {
			out = append(out, Win{WindowStat: ws, Index: i})
		}
	}
	return out
}

// pushBlocks runs z through PushBlock in the given block sizes and returns
// every completed window with its index in z.
func pushBlocks(d *Detector, z []float64, sizes func() int) []Win {
	ts := make([]float64, len(z))
	for i := range ts {
		ts[i] = float64(i) / 50
	}
	var out []Win
	for i := 0; i < len(z); {
		n := min(sizes(), len(z)-i)
		k := len(out)
		out = d.PushBlock(ts[i:i+n], z[i:i+n], out)
		for w := k; w < len(out); w++ {
			out[w].Index += i
		}
		i += n
	}
	return out
}

func checkSameWins(t *testing.T, got, want []Win) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || !sameWindow(got[i].WindowStat, want[i].WindowStat) {
			t.Fatalf("window %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPushBlockMatchesPush: whatever the block split, PushBlock yields the
// windows Push yields sample by sample, closed at the same samples, bit
// for bit; ProcessSeries takes the block path and agrees too.
func TestPushBlockMatchesPush(t *testing.T) {
	z, _ := synth(t, geo.Vec2{}, 240, true, 17)
	want := pushAll(t, z)
	if len(want) == 0 {
		t.Fatal("reference run completed no windows")
	}
	rng := rand.New(rand.NewSource(5))
	splits := []struct {
		name  string
		sizes func() int
	}{
		{"node-batch", func() int { return 25 }},
		{"one", func() int { return 1 }},
		{"random", func() int { return []int{0, 1, 3, 25, 63, 64, 65, 200}[rng.Intn(8)] }},
	}
	for _, sp := range splits {
		t.Run(sp.name, func(t *testing.T) {
			d, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkSameWins(t, pushBlocks(d, z, sp.sizes), want)
		})
	}
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := d.ProcessSeries(0, z)
	if len(series) != len(want) {
		t.Fatalf("ProcessSeries: %d windows, want %d", len(series), len(want))
	}
	for i := range want {
		if !sameWindow(series[i], want[i].WindowStat) {
			t.Fatalf("ProcessSeries window %d: got %+v, want %+v", i, series[i], want[i].WindowStat)
		}
	}
}

// TestDetectorZeroAlloc pins the per-sample and per-block detector paths at
// zero heap allocations once the window slice has capacity.
func TestDetectorZeroAlloc(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if a := testing.AllocsPerRun(2000, func() {
		d.Push(float64(n)/50, 1024+float64(n%13))
		n++
	}); a != 0 {
		t.Errorf("Detector.Push allocates %v times", a)
	}
	ts, z := make([]float64, 25), make([]float64, 25)
	wins := make([]Win, 0, 4)
	if a := testing.AllocsPerRun(200, func() {
		for i := range ts {
			ts[i] = float64(n) / 50
			z[i] = 1024 + float64(n%13)
			n++
		}
		wins = d.PushBlock(ts, z, wins[:0])
	}); a != 0 {
		t.Errorf("Detector.PushBlock allocates %v times", a)
	}
}

// TestSharedDesignConcurrent runs detectors that share one FIR design from
// several goroutines, built concurrently too, and requires each to match the
// serial reference. Run under -race it proves the shared taps are only read.
func TestSharedDesignConcurrent(t *testing.T) {
	a, err := lowPass(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := lowPass(DefaultConfig()); a != b {
		t.Fatal("equal filter settings built two designs")
	}
	z, _ := synth(t, geo.Vec2{}, 120, true, 23)
	want := pushAll(t, z)
	const workers = 4
	got := make([][]Win, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := New(DefaultConfig())
			if err != nil {
				errs[w] = err
				return
			}
			got[w] = pushBlocks(d, z, func() int { return 25 + w })
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		checkSameWins(t, got[w], want)
	}
}
