package prob

import "math"

// Radix-2 iterative FFT over complex128, used by the divide-and-conquer
// exact miner's conquering step (§3.2.2): convolving two support
// distributions is polynomial multiplication, which the FFT performs in
// O(n log n) instead of O(n²).

// FFT transforms x in place. len(x) must be a power of two. inverse selects
// the inverse transform (including the 1/n scaling).
func FFT(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic("prob: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := cmul(x[i+j+half], w)
				x[i+j] = u + v
				x[i+j+half] = u - v
				w = cmul(w, wl)
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] = cmul(x[i], inv)
		}
	}
}

// fftConvolveCutoff is the vector length above which Convolve switches from
// the direct O(n·m) product to the FFT path. Chosen by the ablation bench
// BenchmarkAblationFFTCutoff: on amd64 the direct product's cache behaviour
// beats the FFT's three transforms until roughly n = 256.
const fftConvolveCutoff = 256

// Convolve returns the linear convolution c of a and b:
// c[k] = Σ_i a[i]·b[k−i], with len(c) = len(a)+len(b)−1.
// Inputs are probability vectors; tiny negative FFT round-off is clamped to
// zero. Returns nil when either input is empty.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	if len(a) < fftConvolveCutoff || len(b) < fftConvolveCutoff {
		return convolveDirect(a, b)
	}
	return convolveFFT(a, b)
}

func convolveDirect(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] += float64(av * bv)
		}
	}
	return out
}

func convolveFFT(a, b []float64) []float64 {
	outLen := len(a) + len(b) - 1
	n := 1
	for n < outLen {
		n <<= 1
	}
	fa := make([]complex128, n)
	fb := make([]complex128, n)
	for i, v := range a {
		fa[i] = complex(v, 0)
	}
	for i, v := range b {
		fb[i] = complex(v, 0)
	}
	FFT(fa, false)
	FFT(fb, false)
	for i := range fa {
		fa[i] = cmul(fa[i], fb[i])
	}
	FFT(fa, true)
	out := make([]float64, outLen)
	for i := range out {
		v := real(fa[i])
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// ConvolveTruncated convolves two truncated support distributions whose last
// index (cap) is an absorbing "≥ cap" bucket, and returns the result in the
// same truncated form. Any product a[i]·b[j] with i+j ≥ cap lands in the
// bucket — exact for tail queries at or below cap, because support is
// additive across the two halves. The full convolution runs first (direct
// or FFT), then indexes ≥ cap are folded.
func ConvolveTruncated(a, b []float64, cap int) []float64 {
	full := Convolve(a, b)
	if len(full) <= cap+1 {
		return full
	}
	out := make([]float64, cap+1)
	copy(out, full[:cap])
	tail := 0.0
	for _, v := range full[cap:] {
		tail += v
	}
	if tail > 1 {
		tail = 1
	}
	out[cap] = tail
	return out
}

// cmul is a·b with every product rounded on its own, so no platform fuses a
// product into the sum (Go may fuse x*y + z; amd64 does not, arm64 does).
// On amd64 it carries the built-in complex product's bits.
func cmul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}
