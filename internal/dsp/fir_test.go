package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// toneResponse measures the filter's gain at freq by filtering a pure tone
// and comparing RMS in the steady-state middle of the signal.
func toneResponse(f *FIR, freq, sampleRate float64) float64 {
	n := int(sampleRate * 60)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / sampleRate)
	}
	y := f.Apply(x)
	var inE, outE float64
	for i := n / 4; i < 3*n/4; i++ {
		inE += x[i] * x[i]
		outE += y[i] * y[i]
	}
	if inE == 0 {
		return 0
	}
	return math.Sqrt(outE / inE)
}

func TestLowPassFIRResponse(t *testing.T) {
	lp, err := LowPassFIR(1.0, 50, 201, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	// Passband: ~unity gain.
	for _, f := range []float64{0.1, 0.3, 0.5} {
		g := toneResponse(lp, f, 50)
		if math.Abs(g-1) > 0.05 {
			t.Errorf("gain at %v Hz = %v, want ~1", f, g)
		}
	}
	// Stopband: strong attenuation.
	for _, f := range []float64{3, 5, 10, 20} {
		g := toneResponse(lp, f, 50)
		if g > 0.01 {
			t.Errorf("gain at %v Hz = %v, want < 0.01", f, g)
		}
	}
}

func TestLowPassFIRDCGain(t *testing.T) {
	lp, err := LowPassFIR(1.0, 50, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, tap := range lp.Taps {
		sum += tap
	}
	if !almostEq(sum, 1, 1e-12) {
		t.Errorf("DC gain = %v, want 1", sum)
	}
}

func TestLowPassFIROddTaps(t *testing.T) {
	lp, err := LowPassFIR(1.0, 50, 100, Hamming) // even request becomes odd
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Taps)%2 != 1 {
		t.Errorf("taps = %d, want odd", len(lp.Taps))
	}
	if lp.GroupDelay() != (len(lp.Taps)-1)/2 {
		t.Errorf("GroupDelay = %d", lp.GroupDelay())
	}
}

func TestLowPassFIRValidation(t *testing.T) {
	if _, err := LowPassFIR(0, 50, 101, Hamming); err == nil {
		t.Error("expected error for zero cutoff")
	}
	if _, err := LowPassFIR(25, 50, 101, Hamming); err == nil {
		t.Error("expected error for cutoff at Nyquist")
	}
	if _, err := LowPassFIR(1, 50, 0, Hamming); err == nil {
		t.Error("expected error for zero taps")
	}
}

func TestFIRApplyEmpty(t *testing.T) {
	lp, _ := LowPassFIR(1, 50, 11, Hamming)
	if out := lp.Apply(nil); out != nil {
		t.Errorf("Apply(nil) = %v", out)
	}
}

func TestStreamMatchesApply(t *testing.T) {
	lp, err := LowPassFIR(2, 50, 31, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	n := 500
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*0.7*float64(i)/50) + 0.3*math.Sin(2*math.Pi*9*float64(i)/50)
	}
	st := lp.Stream()
	streamOut := make([]float64, n)
	for i, v := range x {
		streamOut[i] = st.Push(v)
	}
	// Stream output is causal: streamOut[i] corresponds to Apply output at
	// i - groupDelay (Apply compensates the delay).
	applied := lp.Apply(x)
	d := lp.GroupDelay()
	for i := d; i < n; i++ {
		if !almostEq(streamOut[i], applied[i-d], 1e-9) {
			t.Fatalf("stream[%d]=%v != applied[%d]=%v", i, streamOut[i], i-d, applied[i-d])
		}
	}
}

func TestStreamReset(t *testing.T) {
	lp, _ := LowPassFIR(2, 50, 15, Hamming)
	st := lp.Stream()
	st.Push(100)
	st.Push(-50)
	st.Reset()
	// After reset, pushing zeros yields zeros.
	for i := 0; i < 20; i++ {
		if out := st.Push(0); out != 0 {
			t.Fatalf("post-reset output %v != 0", out)
		}
	}
}

func TestDecimate(t *testing.T) {
	const fs = 50.0
	n := int(fs * 100)
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) / fs
		x[i] = math.Sin(2*math.Pi*0.5*ts) + math.Sin(2*math.Pi*20*ts)
	}
	out, err := Decimate(x, fs, 5) // 10 Hz output; 20 Hz tone must vanish
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n/5 {
		t.Fatalf("decimated length = %d, want %d", len(out), n/5)
	}
	// The 0.5 Hz tone survives: RMS ≈ 1/√2.
	var e float64
	for _, v := range out[len(out)/4 : 3*len(out)/4] {
		e += v * v
	}
	rms := math.Sqrt(e / float64(len(out)/2))
	if math.Abs(rms-math.Sqrt2/2) > 0.05 {
		t.Errorf("decimated RMS = %v, want ~0.707", rms)
	}
}

func TestDecimateFactorOne(t *testing.T) {
	x := []float64{1, 2, 3}
	out, err := Decimate(x, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if out[i] != x[i] {
			t.Fatalf("factor-1 decimate altered data")
		}
	}
	// Must be a copy, not an alias.
	out[0] = 99
	if x[0] == 99 {
		t.Error("factor-1 decimate aliases input")
	}
	if _, err := Decimate(x, 50, 0); err == nil {
		t.Error("expected error for zero factor")
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const fs = 50.0
	n := 500
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) / fs
		x[i] = 2*math.Sin(2*math.Pi*5*ts) + 0.5*math.Sin(2*math.Pi*12*ts)
	}
	spec := PowerSpectrum(x)
	k5 := FreqBin(5, n, fs)
	g5 := Goertzel(x, 5, fs)
	if !almostEq(g5, spec[k5], 1e-6*spec[k5]) {
		t.Errorf("Goertzel(5Hz) = %v, FFT bin = %v", g5, spec[k5])
	}
	// Strong bin dominates weak bin.
	if g12 := Goertzel(x, 12, fs); g5 < 10*g12 {
		t.Errorf("expected 5 Hz power >> 12 Hz: %v vs %v", g5, g12)
	}
	if g := Goertzel(nil, 5, fs); g != 0 {
		t.Errorf("Goertzel(nil) = %v", g)
	}
	if g := Goertzel(x, 5, 0); g != 0 {
		t.Errorf("Goertzel with zero rate = %v", g)
	}
}

// ringStream is the historical modulo-ring streaming filter, kept as the
// bit-identity oracle for Stream: one accumulator per output, summed
// taps[L−1]·oldest first and taps[0]·newest last.
type ringStream struct {
	taps []float64
	buf  []float64
	pos  int
}

func newRingStream(taps []float64) *ringStream {
	return &ringStream{taps: taps, buf: make([]float64, len(taps))}
}

func (s *ringStream) Push(x float64) float64 {
	s.buf[s.pos] = x
	s.pos = (s.pos + 1) % len(s.buf)
	var acc float64
	idx := s.pos
	for i := len(s.taps) - 1; i >= 0; i-- {
		acc += s.taps[i] * s.buf[idx]
		idx++
		if idx == len(s.buf) {
			idx = 0
		}
	}
	return acc
}

func (s *ringStream) Reset() {
	clear(s.buf)
	s.pos = 0
}

// randomTaps returns n taps of mixed sign and magnitude, so any change in
// summation order shows up in the low bits.
func randomTaps(rng *rand.Rand, n int) []float64 {
	taps := make([]float64, n)
	for i := range taps {
		taps[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return taps
}

// checkAgainstRing feeds x through Filter in the given block sizes (a
// negative size stands for a Reset at that point) and through the ring
// oracle sample by sample, and fails on the first output whose bits differ.
func checkAgainstRing(t *testing.T, taps, x []float64, blocks []int) {
	t.Helper()
	st := (&FIR{Taps: taps}).Stream()
	ring := newRingStream(taps)
	out := make([]float64, len(x))
	i := 0
	for _, b := range blocks {
		if b < 0 {
			st.Reset()
			ring.Reset()
			continue
		}
		b = min(b, len(x)-i)
		st.Filter(x[i:i+b], out[i:i+b])
		for j := i; j < i+b; j++ {
			want := ring.Push(x[j])
			if math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("taps=%d blocks=%v: out[%d] = %v (%#x), ring oracle %v (%#x)",
					len(taps), blocks, j, out[j], math.Float64bits(out[j]), want, math.Float64bits(want))
			}
		}
		i += b
	}
}

// TestStreamFilterMatchesRing is the bit-identity property: for tap lengths
// shorter and longer than the delay line's room, random block splits
// (empty blocks and blocks longer than the room included) and Resets
// mid-stream, Filter reproduces the ring oracle bit for bit.
func TestStreamFilterMatchesRing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 15, 101, streamRoom + 7} {
		taps := randomTaps(rng, n)
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, 400+rng.Intn(400))
			for i := range x {
				x[i] = 1024 + 300*rng.NormFloat64()
			}
			var blocks []int
			for sum := 0; sum < len(x); {
				switch r := rng.Intn(10); {
				case r == 0:
					blocks = append(blocks, 0)
				case r == 1 && trial%2 == 1:
					blocks = append(blocks, -1)
				case r == 2:
					b := streamRoom + 1 + rng.Intn(3*streamRoom)
					blocks = append(blocks, b)
					sum += b
				default:
					b := 1 + rng.Intn(streamRoom)
					blocks = append(blocks, b)
					sum += b
				}
			}
			checkAgainstRing(t, taps, x, blocks)
		}
	}
	// The paper's 1 Hz design, one sample at a time through Push.
	lp, err := LowPassFIR(1, 50, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	st, ring := lp.Stream(), newRingStream(lp.Taps)
	for i := 0; i < 1000; i++ {
		x := 1024 + 200*math.Sin(float64(i)/7) + rng.NormFloat64()
		if got, want := st.Push(x), ring.Push(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Push[%d] = %v, ring oracle %v", i, got, want)
		}
	}
}

// FuzzStreamFilter checks Filter against the ring oracle for fuzzed taps,
// input and block splits. Data is decoded as: tap count, then block sizes
// (a size byte of 255 is a Reset), then samples from the remaining bytes.
func FuzzStreamFilter(f *testing.F) {
	f.Add(uint8(1), []byte{1, 1, 1}, []byte("single tap, unit blocks"))
	f.Add(uint8(2), []byte{0, 3, 255, 5}, []byte("two taps with a reset in the middle"))
	f.Add(uint8(15), []byte{25, 0, 25, 7}, []byte("fifteen taps over twenty-five sample blocks, as a node sees them"))
	f.Add(uint8(101), []byte{200, 1, 31, 32, 33}, make([]byte, 300))
	f.Add(uint8(streamRoom+7), []byte{streamRoom + 1, 255, 3, 90}, []byte("more taps than the delay line's room, long blocks"))
	f.Fuzz(func(t *testing.T, nTaps uint8, splits, data []byte) {
		if nTaps == 0 || len(data) == 0 {
			return
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		rng := rand.New(rand.NewSource(int64(nTaps)))
		taps := randomTaps(rng, int(nTaps))
		x := make([]float64, len(data))
		for i, b := range data {
			x[i] = float64(int8(b)) * 8.25
		}
		var blocks []int
		for _, b := range splits {
			if b == 255 {
				blocks = append(blocks, -1)
			} else {
				blocks = append(blocks, int(b))
			}
		}
		blocks = append(blocks, len(x)) // filter whatever is left
		checkAgainstRing(t, taps, x, blocks)
	})
}

// TestStreamZeroAlloc pins the streaming filter's hot paths at zero heap
// allocations.
func TestStreamZeroAlloc(t *testing.T) {
	lp, err := LowPassFIR(1, 50, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	st := lp.Stream()
	in, out := make([]float64, 25), make([]float64, 25)
	if a := testing.AllocsPerRun(100, func() { st.Push(1024) }); a != 0 {
		t.Errorf("Stream.Push allocates %v times", a)
	}
	if a := testing.AllocsPerRun(100, func() { st.Filter(in, out) }); a != 0 {
		t.Errorf("Stream.Filter allocates %v times", a)
	}
}
