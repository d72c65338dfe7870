package ocean

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/sid-wsn/sid/internal/dsp"
	"github.com/sid-wsn/sid/internal/geo"
)

// halfLSB is the phasor-equivalence tolerance: half a quantization step of
// the paper's 12-bit ±2 g accelerometer (1024 counts/g), in m/s² for the
// acceleration series and dimensionless for the slopes.
const (
	halfLSBAccel = 0.5 * Gravity / 1024
	halfLSBSlope = 0.5 / 1024
)

func testField(t *testing.T, hs, tp float64, seed int64) *Field {
	t.Helper()
	spec, err := NewPiersonMoskowitz(hs, tp)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewField(FieldConfig{Spectrum: spec, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testPlan(t *testing.T, f *Field, cfg SpectralConfig) *SpectralPlan {
	t.Helper()
	if cfg.Rate == 0 {
		cfg.Rate = 50
	}
	p, err := NewSpectralPlan(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// accumulateBlocks serves n samples from the stream in blocks of blockLen.
func accumulateBlocks(s *SpectralStream, t0, dt float64, n, blockLen int, accel, slopeX, slopeY []float64) {
	for off := 0; off < n; off += blockLen {
		cnt := blockLen
		if n-off < cnt {
			cnt = n - off
		}
		s.AccumulateStream(t0+float64(off)*dt, cnt,
			accel[off:off+cnt], slopeX[off:off+cnt], slopeY[off:off+cnt])
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestSpectralMatchesPhasor is the phasor-equivalence property test: for
// randomized sea states and observer positions, the spectral stream must
// reproduce the phasor series within half a quantization step on every
// sample (the contract documented in docs/SYNTHESIS.md).
func TestSpectralMatchesPhasor(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type caseSpec struct {
		hs, tp float64
		seed   int64
		window int
	}
	cases := []caseSpec{
		{0.15, 3.2, 1, 0},   // smooth
		{0.25, 4.0, 2, 0},   // the default deployment sea
		{1.0, 6.0, 3, 0},    // moderate
		{3.0, 8.5, 4, 0},    // rough
		{0.25, 4.0, 5, 512}, // non-default window
		{0.25, 4.0, 6, 2048},
	}
	for i := 0; i < 8; i++ {
		cases = append(cases, caseSpec{
			hs:   0.1 + 2.9*rng.Float64(),
			tp:   3 + 6*rng.Float64(),
			seed: rng.Int63(),
		})
	}
	const (
		rate = 50.0
		dt   = 1 / rate
		n    = 3000
	)
	for _, tc := range cases {
		f := testField(t, tc.hs, tc.tp, tc.seed)
		plan := testPlan(t, f, SpectralConfig{Rate: rate, Window: tc.window})
		pos := geo.Vec2{X: -200 + 400*rng.Float64(), Y: -200 + 400*rng.Float64()}
		t0 := 100 * rng.Float64()
		// Phasor "blocks" must resync against the exact phase the way the
		// pipeline does, so serve the reference in pipeline-sized blocks.
		ref := SurfaceSeries{
			Accel:  make([]float64, n),
			SlopeX: make([]float64, n),
			SlopeY: make([]float64, n),
		}
		f.AccumulateSeries(pos, t0, dt, n, ref.Accel, ref.SlopeX, ref.SlopeY)

		got := SurfaceSeries{
			Accel:  make([]float64, n),
			SlopeX: make([]float64, n),
			SlopeY: make([]float64, n),
		}
		accumulateBlocks(plan.NewStream(pos), t0, dt, n, 25, got.Accel, got.SlopeX, got.SlopeY)

		da := maxAbsDiff(ref.Accel, got.Accel)
		dx := maxAbsDiff(ref.SlopeX, got.SlopeX)
		dy := maxAbsDiff(ref.SlopeY, got.SlopeY)
		if da > halfLSBAccel || dx > halfLSBSlope || dy > halfLSBSlope {
			t.Errorf("Hs=%.2f Tp=%.2f seed=%d window=%d K=%d: spectral deviates from phasor: accel %.3g (tol %.3g), slopeX %.3g slopeY %.3g (tol %.3g)",
				tc.hs, tc.tp, tc.seed, plan.Window(), plan.KernelHalfWidth(), da, halfLSBAccel, dx, dy, halfLSBSlope)
		}
	}
}

// TestSpectralBoundaryContinuity asserts the overlap-add stitching is exact:
// the same grid range served in pipeline-sized blocks, in uneven blocks, and
// in one call must be bit-identical — no seams at chunk or hop boundaries.
func TestSpectralBoundaryContinuity(t *testing.T) {
	f := testField(t, 0.4, 4.5, 99)
	const (
		rate = 50.0
		dt   = 1 / rate
		n    = 2600 // spans several 512-sample hops
	)
	plan := testPlan(t, f, SpectralConfig{Rate: rate})
	pos := geo.Vec2{X: 31, Y: -47}
	t0 := 12.34

	serve := func(blockLen int) SurfaceSeries {
		out := SurfaceSeries{
			Accel:  make([]float64, n),
			SlopeX: make([]float64, n),
			SlopeY: make([]float64, n),
		}
		accumulateBlocks(plan.NewStream(pos), t0, dt, n, blockLen, out.Accel, out.SlopeX, out.SlopeY)
		return out
	}
	whole := serve(n)
	for _, blockLen := range []int{25, 17, 512, 1000} {
		blocks := serve(blockLen)
		for i := 0; i < n; i++ {
			if blocks.Accel[i] != whole.Accel[i] || blocks.SlopeX[i] != whole.SlopeX[i] || blocks.SlopeY[i] != whole.SlopeY[i] {
				t.Fatalf("block length %d: sample %d differs from single-call synthesis (accel %v vs %v)",
					blockLen, i, blocks.Accel[i], whole.Accel[i])
			}
		}
	}
}

// TestSpectralGapContinuity: a stream that skips ahead (duty-cycled node)
// must produce the same samples at the same grid indices as a stream that
// served every block — chunks live on an absolute grid, not a read cursor.
// The gaps cover less than a hop (the next segment's chunk is the one
// kept), exactly one hop, more than one hop and more than one chunk (the
// skipped-to segment re-synthesizes its previous chunk).
func TestSpectralGapContinuity(t *testing.T) {
	f := testField(t, 0.3, 5.0, 7)
	const (
		rate = 50.0
		dt   = 1 / rate
		n    = 6000
	)
	plan := testPlan(t, f, SpectralConfig{Rate: rate})
	hop := plan.Window() / 2
	pos := geo.Vec2{X: 5, Y: 5}

	full := newSeries(n)
	accumulateBlocks(plan.NewStream(pos), 0, dt, n, 25, full.Accel, full.SlopeX, full.SlopeY)

	for _, gap := range []int{75, hop, hop + 188, plan.Window() + 300} {
		// Serve one 25-sample block, then skip gap samples, like a
		// duty-cycled node.
		gappy := plan.NewStream(pos)
		for off := 0; off+25 <= n; off += 25 + gap {
			accel := make([]float64, 25)
			sx := make([]float64, 25)
			sy := make([]float64, 25)
			gappy.AccumulateStream(float64(off)*dt, 25, accel, sx, sy)
			for i := 0; i < 25; i++ {
				if accel[i] != full.Accel[off+i] || sx[i] != full.SlopeX[off+i] || sy[i] != full.SlopeY[off+i] {
					t.Fatalf("gap %d: gapped stream sample %d differs from contiguous stream", gap, off+i)
				}
			}
		}
	}
}

// TestSpectralCullingBudget: with amplitude budgets set, the plan must drop
// components, report their summed amplitudes within the budgets, and the
// synthesized series must stay within budget+tolerance of the exact series.
func TestSpectralCullingBudget(t *testing.T) {
	f := testField(t, 0.25, 4.0, 11)
	const (
		rate      = 50.0
		dt        = 1 / rate
		n         = 2000
		cullAccel = 0.25 * Gravity / 1024
		cullSlope = 0.25 / 1024
	)
	plan := testPlan(t, f, SpectralConfig{Rate: rate, CullAccel: cullAccel, CullSlope: cullSlope})
	count, accelSum, slopeSum := plan.CulledComponents()
	if count == 0 {
		t.Fatalf("expected the default sea to have cullable components, got none (of %d)", f.NumComponents())
	}
	if accelSum > cullAccel || slopeSum > cullSlope {
		t.Fatalf("culled amplitude sums exceed budgets: accel %g > %g or slope %g > %g",
			accelSum, cullAccel, slopeSum, cullSlope)
	}
	if plan.NumComponents()+count != f.NumComponents() {
		t.Fatalf("component accounting: %d active + %d culled != %d total",
			plan.NumComponents(), count, f.NumComponents())
	}

	pos := geo.Vec2{X: 12, Y: 80}
	ref := SurfaceSeries{
		Accel:  make([]float64, n),
		SlopeX: make([]float64, n),
		SlopeY: make([]float64, n),
	}
	f.AccumulateSeries(pos, 0, dt, n, ref.Accel, ref.SlopeX, ref.SlopeY)
	got := SurfaceSeries{
		Accel:  make([]float64, n),
		SlopeX: make([]float64, n),
		SlopeY: make([]float64, n),
	}
	accumulateBlocks(plan.NewStream(pos), 0, dt, n, 25, got.Accel, got.SlopeX, got.SlopeY)
	if da := maxAbsDiff(ref.Accel, got.Accel); da > cullAccel+halfLSBAccel {
		t.Errorf("culled accel deviates %g, above budget+tolerance %g", da, cullAccel+halfLSBAccel)
	}
	if ds := math.Max(maxAbsDiff(ref.SlopeX, got.SlopeX), maxAbsDiff(ref.SlopeY, got.SlopeY)); ds > cullSlope+halfLSBSlope {
		t.Errorf("culled slope deviates %g, above budget+tolerance %g", ds, cullSlope+halfLSBSlope)
	}
}

// TestSpectralMovingStreamDeterminism: a drifting stream is deterministic —
// two identically configured streams serve bit-identical samples.
func TestSpectralMovingStreamDeterminism(t *testing.T) {
	f := testField(t, 0.25, 4.0, 21)
	const (
		rate = 50.0
		dt   = 1 / rate
		n    = 1500
	)
	plan := testPlan(t, f, SpectralConfig{Rate: rate})
	posAt := func(t float64) geo.Vec2 {
		return geo.Vec2{X: 3 * math.Sin(2*math.Pi*t/60), Y: 2 * math.Cos(2*math.Pi*t/45)}
	}
	mk := func() SurfaceSeries {
		out := SurfaceSeries{
			Accel:  make([]float64, n),
			SlopeX: make([]float64, n),
			SlopeY: make([]float64, n),
		}
		accumulateBlocks(plan.NewMovingStream(posAt), 0, dt, n, 25, out.Accel, out.SlopeX, out.SlopeY)
		return out
	}
	a, b := mk(), mk()
	for i := 0; i < n; i++ {
		if a.Accel[i] != b.Accel[i] || a.SlopeX[i] != b.SlopeX[i] || a.SlopeY[i] != b.SlopeY[i] {
			t.Fatalf("moving streams diverge at sample %d", i)
		}
	}
}

func BenchmarkSpectralStreamPerSample(b *testing.B) {
	spec, err := NewPiersonMoskowitz(0.25, 4.0)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewField(FieldConfig{Spectrum: spec, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := NewSpectralPlan(f, SpectralConfig{Rate: 50})
	if err != nil {
		b.Fatal(err)
	}
	s := plan.NewStream(geo.Vec2{X: 10, Y: 10})
	const blockLen = 25
	accel := make([]float64, blockLen)
	sx := make([]float64, blockLen)
	sy := make([]float64, blockLen)
	b.ResetTimer()
	for i := 0; i < b.N; i += blockLen {
		for j := range accel {
			accel[j], sx[j], sy[j] = 0, 0, 0
		}
		s.AccumulateStream(float64(i)/50, blockLen, accel, sx, sy)
	}
}

// oracleSlot caches one chunk of the oracle: the windowed contribution of
// chunk m to grid samples [m·hop, m·hop+n).
type oracleSlot struct {
	m                     int
	valid                 bool
	accel, slopeX, slopeY []float64
}

// oracleStream is the reference the production stream is checked against:
// the straightforward form of the same synthesis. Every component is
// scattered on its own, each series takes its own inverse transform, and a
// three-slot cache holds whole chunks. It shares only the plan's prepared
// components and kernel derivation.
type oracleStream struct {
	plan    *SpectralPlan
	pos     geo.Vec2
	posAt   func(t float64) geo.Vec2
	started bool
	tBase   float64
	bins    []int          // per component
	w       [][]complex128 // per component
	slots   [3]oracleSlot
	scratch [3][]complex128
}

func newOracle(p *SpectralPlan, pos geo.Vec2, posAt func(t float64) geo.Vec2) *oracleStream {
	o := &oracleStream{plan: p, pos: pos, posAt: posAt}
	for _, c := range p.comps {
		bin, w := p.kernel(c.omega)
		o.bins = append(o.bins, bin)
		o.w = append(o.w, w)
	}
	for i := range o.scratch {
		o.scratch[i] = make([]complex128, p.n)
	}
	return o
}

func (o *oracleStream) AccumulateStream(t0 float64, n int, accel, slopeX, slopeY []float64) {
	if n <= 0 {
		return
	}
	p := o.plan
	if !o.started {
		o.started = true
		o.tBase = t0 - math.Round(t0*p.rate)*p.dt
	}
	si := int(math.Round((t0 - o.tBase) * p.rate))
	hop := p.hop
	for off := 0; off < n; {
		sAbs := si + off
		m := floorDiv(sAbs, hop)
		cnt := (m+1)*hop - sAbs
		if rest := n - off; cnt > rest {
			cnt = rest
		}
		cur := o.chunk(m)
		prev := o.chunk(m - 1)
		u1 := sAbs - m*hop
		u0 := u1 + hop
		for i := 0; i < cnt; i++ {
			accel[off+i] += cur.accel[u1+i] + prev.accel[u0+i]
			slopeX[off+i] += cur.slopeX[u1+i] + prev.slopeX[u0+i]
			slopeY[off+i] += cur.slopeY[u1+i] + prev.slopeY[u0+i]
		}
		off += cnt
	}
}

func (o *oracleStream) chunk(m int) *oracleSlot {
	victim := -1
	for i := range o.slots {
		sl := &o.slots[i]
		if sl.valid && sl.m == m {
			return sl
		}
		if !sl.valid {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(o.slots); i++ {
			if o.slots[i].m < o.slots[victim].m {
				victim = i
			}
		}
	}
	sl := &o.slots[victim]
	o.synthesize(sl, m)
	return sl
}

func (o *oracleStream) synthesize(sl *oracleSlot, m int) {
	p := o.plan
	n := p.n
	if sl.accel == nil {
		sl.accel = make([]float64, n)
		sl.slopeX = make([]float64, n)
		sl.slopeY = make([]float64, n)
	}
	tm := o.tBase + float64(m*p.hop)*p.dt
	pos := o.pos
	if o.posAt != nil {
		pos = o.posAt(tm + 0.5*float64(n)*p.dt)
	}
	sa, sx, sy := o.scratch[0], o.scratch[1], o.scratch[2]
	for i := 0; i < n; i++ {
		sa[i], sx[i], sy[i] = 0, 0, 0
	}
	mask := n - 1
	for ci := range p.comps {
		c := &p.comps[ci]
		sin, cos := math.Sincos(c.kx*pos.X + c.ky*pos.Y + c.phase - c.omega*tm)
		u := complex(cos, sin)
		uA := u * complex(c.cA, 0)
		uX := u * complex(0, c.aX)
		uY := u * complex(0, c.aY)
		base := o.bins[ci] - p.k + n
		for j, w := range o.w[ci] {
			idx := (base + j) & mask
			sa[idx] += uA * w
			sx[idx] += uX * w
			sy[idx] += uY * w
		}
	}
	dsp.FFTInPlace(sa, true)
	dsp.FFTInPlace(sx, true)
	dsp.FFTInPlace(sy, true)
	for i := 0; i < n; i++ {
		sl.accel[i] = real(sa[i])
		sl.slopeX[i] = real(sx[i])
		sl.slopeY[i] = real(sy[i])
	}
	sl.m, sl.valid = m, true
}

// TestSpectralPlanComponentsPinned pins the plan's component accounting
// (count after culling, kernel width, culled count and amplitude sums) on
// fixed seas, with the source's tolerances and cull budgets and without
// culling, and checks that the frequency groups tile the components.
// Grouping components by frequency must not change what is synthesized;
// the second row is the deployment sea as the source builds it.
func TestSpectralPlanComponentsPinned(t *testing.T) {
	cases := []struct {
		hs, tp       float64
		seed         int64
		cull         bool
		comps        int
		groups, k    int
		culled       int
		accel, slope float64
	}{
		{0.25, 4, 3297, false, 512, 64, 17, 0, 0, 0},
		{0.25, 4, 3297, true, 478, 60, 17, 34, 0.0008803367120011617, 8.973870662601035e-05},
		{1, 6, 3, false, 512, 64, 23, 0, 0, 0},
		{1, 6, 3, true, 479, 60, 23, 33, 0.0007471429956188297, 7.616136550650658e-05},
		{3, 8.5, 4, false, 512, 64, 24, 0, 0, 0},
		{3, 8.5, 4, true, 480, 60, 24, 32, 5.0080284800538684e-05, 5.10502393481536e-06},
		{0.15, 3.2, 1, false, 512, 64, 16, 0, 0, 0},
		{0.15, 3.2, 1, true, 477, 60, 16, 35, 0.0008860197378745726, 9.031801609322862e-05},
	}
	for _, tc := range cases {
		f := testField(t, tc.hs, tc.tp, tc.seed)
		cfg := SpectralConfig{Rate: 50, TolAccel: halfLSBAccel, TolSlope: halfLSBSlope}
		if tc.cull {
			cfg.CullAccel = 0.5 * 0.25 * Gravity / 1024
			cfg.CullSlope = 0.5 * 0.25 / 1024
		}
		p := testPlan(t, f, cfg)
		count, accel, slope := p.CulledComponents()
		if p.NumComponents() != tc.comps || p.KernelHalfWidth() != tc.k || count != tc.culled || accel != tc.accel || slope != tc.slope {
			t.Errorf("Hs=%v Tp=%v seed=%d cull=%v: got %d comps, K=%d, culled %d (%v, %v); want %d, K=%d, %d (%v, %v)",
				tc.hs, tc.tp, tc.seed, tc.cull, p.NumComponents(), p.KernelHalfWidth(), count, accel, slope,
				tc.comps, tc.k, tc.culled, tc.accel, tc.slope)
		}
		// Every component sits in exactly one group, and a group's
		// components share its frequency.
		next := 0
		for _, g := range p.groups {
			if g.lo != next || g.hi <= g.lo {
				t.Fatalf("groups do not tile the components: [%d, %d) after %d", g.lo, g.hi, next)
			}
			for _, c := range p.comps[g.lo:g.hi] {
				if c.omega != p.comps[g.lo].omega {
					t.Fatalf("group [%d, %d) mixes frequencies", g.lo, g.hi)
				}
			}
			next = g.hi
		}
		if next != len(p.comps) {
			t.Fatalf("groups cover %d of %d components", next, len(p.comps))
		}
		if len(p.groups) != tc.groups {
			t.Errorf("Hs=%v Tp=%v seed=%d cull=%v: %d frequency groups, want %d",
				tc.hs, tc.tp, tc.seed, tc.cull, len(p.groups), tc.groups)
		}
	}
}

// serveSplits serves [0, n) samples to each stream in the same random
// sequence of blocks: mostly short, some longer than the window, and some
// skipped ranges. Skipped samples stay zero in every output.
func serveSplits(rng *rand.Rand, t0, dt float64, n, window int, streams []blockStream, outs []SurfaceSeries) {
	for off := 0; off < n; {
		var cnt int
		switch r := rng.Float64(); {
		case r < 0.1:
			cnt = window + 1 + rng.Intn(2*window)
		case r < 0.2:
			off += 1 + rng.Intn(2*window) // a gap
			continue
		default:
			cnt = 1 + rng.Intn(100)
		}
		if cnt > n-off {
			cnt = n - off
		}
		for i, s := range streams {
			o := outs[i]
			s.AccumulateStream(t0+float64(off)*dt, cnt, o.Accel[off:off+cnt], o.SlopeX[off:off+cnt], o.SlopeY[off:off+cnt])
		}
		off += cnt
	}
}

// blockStream is the block interface the production stream and the oracle
// share.
type blockStream interface {
	AccumulateStream(t0 float64, n int, accel, slopeX, slopeY []float64)
}

func newSeries(n int) SurfaceSeries {
	return SurfaceSeries{Accel: make([]float64, n), SlopeX: make([]float64, n), SlopeY: make([]float64, n)}
}

// TestSpectralMatchesOracle is the property test of the grouped scatter,
// the Hermitian-packed transform and the two-buffer stream: across
// randomized seas, culling on and off, windows 8 to 4096, kernel
// overrides, fixed and drifting observers and random block splits with
// gaps, every sample matches the per-component, three-transform oracle
// within 1e-12 (m/s² for accel, dimensionless for the slopes).
func TestSpectralMatchesOracle(t *testing.T) {
	const (
		rate = 50.0
		dt   = 1 / rate
		tol  = 1e-12
	)
	rng := rand.New(rand.NewSource(314))
	windows := []int{8, 16, 64, 256, 1024, 2048, 4096}
	var worstA, worstS float64
	for trial := 0; trial < 28; trial++ {
		hs, tp := 0.1+2.9*rng.Float64(), 3+6*rng.Float64()
		f := testField(t, hs, tp, rng.Int63())
		cfg := SpectralConfig{Rate: rate, Window: windows[trial%len(windows)]}
		if trial%2 == 1 {
			cfg.CullAccel = 0.25 * Gravity / 1024
			cfg.CullSlope = 0.25 / 1024
		}
		if trial%3 == 2 {
			cfg.Kernel = 1 + rng.Intn(cfg.Window/4)
		}
		plan := testPlan(t, f, cfg)
		pos := geo.Vec2{X: -300 + 600*rng.Float64(), Y: -300 + 600*rng.Float64()}
		var posAt func(t float64) geo.Vec2
		stream := plan.NewStream(pos)
		moving := trial%4 >= 2
		if moving {
			r, period := 2+3*rng.Float64(), 40+50*rng.Float64()
			posAt = func(t float64) geo.Vec2 {
				return geo.Vec2{X: pos.X + r*math.Sin(2*math.Pi*t/period), Y: pos.Y + r*math.Cos(2*math.Pi*t/period)}
			}
			stream = plan.NewMovingStream(posAt)
		}
		n := 3*cfg.Window + 600 + rng.Intn(cfg.Window)
		t0 := 200 * rng.Float64()
		outs := []SurfaceSeries{newSeries(n), newSeries(n)}
		serveSplits(rng, t0, dt, n, cfg.Window, []blockStream{stream, newOracle(plan, pos, posAt)}, outs)
		got, want := outs[0], outs[1]
		da := maxAbsDiff(got.Accel, want.Accel)
		dx := maxAbsDiff(got.SlopeX, want.SlopeX)
		dy := maxAbsDiff(got.SlopeY, want.SlopeY)
		worstA, worstS = math.Max(worstA, da), math.Max(worstS, math.Max(dx, dy))
		if da > tol || dx > tol || dy > tol {
			t.Errorf("trial %d (Hs=%.2f Tp=%.2f window=%d K=%d cull=%v moving=%v): deviates from oracle: accel %.3g, slopeX %.3g, slopeY %.3g",
				trial, hs, tp, cfg.Window, plan.KernelHalfWidth(), cfg.CullAccel > 0, moving, da, dx, dy)
		}
	}
	t.Logf("largest deviation from the oracle: accel %.3g m/s², slope %.3g", worstA, worstS)
}

// TestSpectralStreamZeroAlloc: in steady state a stream serves blocks,
// across hop and chunk boundaries, without allocating — the chunk scratch
// comes back to the plan's free list after every synthesis.
func TestSpectralStreamZeroAlloc(t *testing.T) {
	f := testField(t, 0.25, 4.0, 3297)
	plan := testPlan(t, f, SpectralConfig{Rate: 50})
	fixed := plan.NewStream(geo.Vec2{X: 40, Y: 60})
	moving := plan.NewMovingStream(func(t float64) geo.Vec2 {
		return geo.Vec2{X: 40 + 3*math.Sin(t/20), Y: 60}
	})
	for _, s := range []*SpectralStream{fixed, moving} {
		const blockLen = 300 // crosses a 512-sample hop every other block
		buf := newSeries(blockLen)
		next := 0
		serve := func() {
			s.AccumulateStream(float64(next)/50, blockLen, buf.Accel, buf.SlopeX, buf.SlopeY)
			next += blockLen
		}
		serve()
		if allocs := testing.AllocsPerRun(50, serve); allocs != 0 {
			t.Errorf("AccumulateStream allocates %.1f times per block in steady state", allocs)
		}
	}
}

// TestSpectralStreamFootprint: a live stream holds 6·hop float64s of
// sample state (24 KiB at the default window) plus its header; the complex
// scratch belongs to the plan. 1,000 streams after their first block must
// cost at most 32 KiB each.
func TestSpectralStreamFootprint(t *testing.T) {
	f := testField(t, 0.25, 4.0, 3297)
	plan := testPlan(t, f, SpectralConfig{Rate: 50})
	const streams = 1000
	buf := newSeries(25)
	live := make([]*SpectralStream, streams)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range live {
		live[i] = plan.NewStream(geo.Vec2{X: float64(i), Y: 0})
		live[i].AccumulateStream(0, len(buf.Accel), buf.Accel, buf.SlopeX, buf.SlopeY)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perStream := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / streams
	runtime.KeepAlive(live)
	if perStream > 32<<10 {
		t.Errorf("a live stream holds %d bytes, want ≤ %d", perStream, 32<<10)
	}
	t.Logf("%d bytes per live stream", perStream)
}

// TestSpectralStreamsShareScratch runs streams on one plan from several
// goroutines at once: they borrow and return the plan's chunk scratch
// concurrently, and each must still serve exactly the samples it serves
// alone. Run under -race.
func TestSpectralStreamsShareScratch(t *testing.T) {
	f := testField(t, 0.25, 4.0, 3297)
	plan := testPlan(t, f, SpectralConfig{Rate: 50, Window: 256})
	const (
		workers = 4
		n       = 3000
		block   = 37
	)
	pos := func(w int) geo.Vec2 { return geo.Vec2{X: 25 * float64(w), Y: -10 * float64(w)} }
	want := make([]SurfaceSeries, workers)
	for w := range want {
		want[w] = newSeries(n)
		accumulateBlocks(plan.NewStream(pos(w)), 0, 1.0/50, n, block, want[w].Accel, want[w].SlopeX, want[w].SlopeY)
	}
	got := make([]SurfaceSeries, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = newSeries(n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			accumulateBlocks(plan.NewStream(pos(w)), 0, 1.0/50, n, block, got[w].Accel, got[w].SlopeX, got[w].SlopeY)
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := 0; i < n; i++ {
			if got[w].Accel[i] != want[w].Accel[i] || got[w].SlopeX[i] != want[w].SlopeX[i] || got[w].SlopeY[i] != want[w].SlopeY[i] {
				t.Fatalf("stream %d sample %d differs when streams run concurrently", w, i)
			}
		}
	}
}
