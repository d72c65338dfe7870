package dsp

import (
	"fmt"
	"math"
	"sync"
)

// FIR is a finite-impulse-response filter described by its tap coefficients.
type FIR struct {
	Taps []float64

	revOnce sync.Once
	rev     []float64 // Taps reversed, shared by every Stream of the design
}

// LowPassFIR designs a windowed-sinc low-pass filter with the given cutoff
// frequency (Hz), sample rate (Hz), and number of taps (made odd so the
// filter has integer group delay). The node-level detector uses cutoff=1 Hz
// at 50 Hz to "filter out the frequency above 1 Hz" (§IV-B, Fig. 8).
func LowPassFIR(cutoff, sampleRate float64, taps int, window WindowType) (*FIR, error) {
	if cutoff <= 0 || cutoff >= sampleRate/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz must be in (0, %g)", cutoff, sampleRate/2)
	}
	if err := mustPositive("FIR taps", taps); err != nil {
		return nil, err
	}
	if taps%2 == 0 {
		taps++
	}
	w, err := Window(window, taps)
	if err != nil {
		return nil, err
	}
	fc := cutoff / sampleRate // normalized cutoff in cycles/sample
	mid := (taps - 1) / 2
	h := make([]float64, taps)
	var sum float64
	for i := 0; i < taps; i++ {
		n := float64(i - mid)
		var v float64
		if n == 0 {
			v = 2 * fc
		} else {
			v = math.Sin(2*math.Pi*fc*n) / (math.Pi * n)
		}
		h[i] = v * w[i]
		sum += h[i]
	}
	// Normalize for unity DC gain.
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
	return &FIR{Taps: h}, nil
}

// GroupDelay returns the filter's group delay in samples ((taps−1)/2 for the
// linear-phase designs produced by this package).
func (f *FIR) GroupDelay() int { return (len(f.Taps) - 1) / 2 }

// Apply filters x and returns a slice of the same length. Edges are handled
// by implicit zero padding; output sample i is aligned with input sample i
// (the group delay is compensated).
func (f *FIR) Apply(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	full := Convolve(x, f.Taps)
	delay := f.GroupDelay()
	out := make([]float64, len(x))
	copy(out, full[delay:delay+len(x)])
	return out
}

// streamRoom is the delay line's spare capacity past the L−1 samples of
// history: up to streamRoom new samples are appended before the line
// shifts its history back to the front.
const streamRoom = 32

// Stream runs the filter as a causal streaming operation: each input sample
// yields one output sample delayed by the group delay. It is the form a
// sensor node would run online.
//
// Bit-identity contract: every output y[n] is summed in one accumulator,
// oldest sample first —
//
//	acc += taps[L−1]·x[n−L+1], then taps[L−2]·x[n−L+2], …, last taps[0]·x[n]
//
// — whatever the block split, so Filter over any sequence of blocks, Push
// per sample, and the historical modulo-ring filter agree bit for bit.
// Filter computes four outputs per pass over the taps, each in its own
// accumulator; the lanes interleave different outputs, never the terms of
// one.
//
// The taps are shared with the FIR design and only read, so any number of
// streams built from one design may run concurrently. A single Stream is
// not safe for concurrent use.
type Stream struct {
	rev []float64 // the design's taps in reverse order, shared
	// line is the linear delay line: line[:n] holds the input history,
	// oldest first, and always at least the last L−1 samples (zeros
	// before any input).
	line []float64
	n    int
}

// Stream returns a streaming instance of the filter. Streams share the
// design's taps (reversed once, on the first call) and keep only their
// delay line, so the taps must not be modified once a stream exists.
func (f *FIR) Stream() *Stream {
	f.revOnce.Do(func() {
		f.rev = make([]float64, len(f.Taps))
		for i, t := range f.Taps {
			f.rev[len(f.Taps)-1-i] = t
		}
	})
	hist := len(f.Taps) - 1
	return &Stream{rev: f.rev, line: make([]float64, hist+streamRoom), n: hist}
}

// Push feeds one input sample and returns the next (causal) output sample:
// the one-sample case of Filter.
func (s *Stream) Push(x float64) float64 {
	in := [1]float64{x}
	s.Filter(in[:], in[:])
	return in[0]
}

// Filter feeds the block in through the filter and writes one output per
// input sample to out, which must be at least as long as in. in and out
// may be the same slice.
func (s *Stream) Filter(in, out []float64) {
	out = out[:len(in)]
	hist := len(s.rev) - 1
	for len(in) > 0 {
		// Move the history to the front when the block does not fit behind
		// it, so a block of up to streamRoom samples is filtered in one go.
		if s.n+len(in) > len(s.line) && s.n > hist {
			s.n = copy(s.line, s.line[s.n-hist:s.n])
		}
		c := copy(s.line[s.n:], in)
		s.convolve(out[:c], s.line[s.n-hist:s.n+c])
		s.n += c
		in, out = in[c:], out[c:]
	}
}

// convolve writes out[j] = Σ rev[k]·x[j+k] for k = 0…L−1, in that order
// (rev[k] = taps[L−1−k], the contract on Stream); len(x) = len(out)+L−1.
// Outputs go four per pass over the taps; a last lone output (every Push)
// takes a single-accumulator pass, which does a quarter of the work.
func (s *Stream) convolve(out, x []float64) {
	rev := s.rev
	last := len(out) - 1
	j := 0
	for ; j < last; j += 4 {
		// Lanes past the end of out repeat the last output's window, and
		// their sums are dropped.
		w0 := x[j:][:len(rev)]
		w1 := x[j+1:][:len(rev)]
		w2 := x[min(j+2, last):][:len(rev)]
		w3 := x[min(j+3, last):][:len(rev)]
		var a0, a1, a2, a3 float64
		for k, t := range rev {
			a0 += t * w0[k]
			a1 += t * w1[k]
			a2 += t * w2[k]
			a3 += t * w3[k]
		}
		lanes := [4]float64{a0, a1, a2, a3}
		copy(out[j:], lanes[:])
	}
	if j == last {
		w := x[j:][:len(rev)]
		var acc float64
		for k, t := range rev {
			acc += t * w[k]
		}
		out[j] = acc
	}
}

// MemBytes returns the stream's own resident state in bytes: the delay
// line plus its cursor. The taps belong to the shared FIR design and are
// not counted against any one stream.
func (s *Stream) MemBytes() int {
	return cap(s.line)*8 + 8
}

// Reset clears the stream state.
func (s *Stream) Reset() {
	clear(s.line)
	s.n = len(s.rev) - 1
}

// Decimate low-pass filters x (anti-aliasing at 0.8×Nyquist of the output
// rate) and keeps every factor-th sample.
func Decimate(x []float64, sampleRate float64, factor int) ([]float64, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("dsp: decimation factor must be positive, got %d", factor)
	}
	if factor == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	outRate := sampleRate / float64(factor)
	lp, err := LowPassFIR(0.4*outRate, sampleRate, 101, Hamming)
	if err != nil {
		return nil, err
	}
	filtered := lp.Apply(x)
	out := make([]float64, 0, len(x)/factor+1)
	for i := 0; i < len(filtered); i += factor {
		out = append(out, filtered[i])
	}
	return out, nil
}

// Goertzel evaluates the power of a single DFT bin at the given target
// frequency, a cheap narrowband detector suitable for energy-constrained
// nodes (an alternative to a full FFT at node level).
func Goertzel(x []float64, targetFreq, sampleRate float64) float64 {
	if len(x) == 0 || sampleRate <= 0 {
		return 0
	}
	k := math.Round(float64(len(x)) * targetFreq / sampleRate)
	omega := 2 * math.Pi * k / float64(len(x))
	coeff := 2 * math.Cos(omega)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	return s1*s1 + s2*s2 - coeff*s1*s2
}
