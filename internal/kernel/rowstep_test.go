package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// rowStepRef is the row update one cell at a time, the recurrence both
// rowStep implementations unroll.
func rowStepRef(w []float64, p, q float64) {
	for i := len(w) - 1; i >= 1; i-- {
		w[i] = float64(w[i-1]*p) + float64(w[i]*q)
	}
}

// rowStepCase runs step and want over the window buf[off:off+n] of two
// copies of buf and fails unless the copies match bitwise everywhere, and
// unless step left w[0] and every cell outside the window as it found them.
func rowStepCase(t testing.TB, name string, step, want func([]float64, float64, float64), buf []float64, off, n int, p float64) {
	t.Helper()
	got := append([]float64(nil), buf...)
	ref := append([]float64(nil), buf...)
	step(got[off:off+n], p, 1-p)
	want(ref[off:off+n], p, 1-p)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
			t.Fatalf("%s (n=%d, off=%d, p=%v): cell %d = %v (%#x), want %v (%#x)",
				name, n, off, p, j-off, got[j], math.Float64bits(got[j]), ref[j], math.Float64bits(ref[j]))
		}
		if (j <= off || j >= off+n) && math.Float64bits(got[j]) != math.Float64bits(buf[j]) {
			t.Fatalf("%s (n=%d, off=%d, p=%v): wrote cell %d outside w[1:]", name, n, off, p, j-off)
		}
	}
}

// rowStepRows are the row contents the update is pinned over: exact zeros
// and ones, subnormals, and random values in [0, 1].
func rowStepRows(rng *rand.Rand, size int) [][]float64 {
	fill := func(f func(i int) float64) []float64 {
		b := make([]float64, size)
		for i := range b {
			b[i] = f(i)
		}
		return b
	}
	return [][]float64{
		fill(func(int) float64 { return 0 }),
		fill(func(int) float64 { return 1 }),
		fill(func(i int) float64 { return math.SmallestNonzeroFloat64 * float64(1+i%5) }),
		fill(func(i int) float64 {
			switch i % 4 {
			case 0:
				return 0
			case 1:
				return 1
			case 2:
				return 0x1p-1060
			}
			return rng.Float64()
		}),
		fill(func(int) float64 { return rng.Float64() }),
	}
}

// TestRowStepMatchesGo pins the row update: the Go loop against the one-cell
// recurrence, then the assembly against the Go loop, bit for bit, at every
// width 1…70 and start offsets 0–3 into a longer buffer (so the vector loads
// are unaligned), over each p and row shape the DP can meet.
func TestRowStepMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ps := []float64{1, 0.5, 1 - 0x1p-53, 1e-300, math.SmallestNonzeroFloat64, rng.Float64(), rng.Float64()}
	rows := rowStepRows(rng, 70+3+4)
	run := func(t *testing.T, name string, step, want func([]float64, float64, float64)) {
		for _, buf := range rows {
			for n := 1; n <= 70; n++ {
				for off := 0; off <= 3; off++ {
					for _, p := range ps {
						rowStepCase(t, name, step, want, buf, off, n, p)
					}
				}
			}
		}
	}
	t.Run("go", func(t *testing.T) { run(t, "rowStepGo", rowStepGo, rowStepRef) })
	t.Run("asm", func(t *testing.T) {
		if rowStepAsm == nil {
			t.Skip("no assembly row update on this CPU; the Go loop runs everywhere")
		}
		run(t, "rowStepAsm", rowStepAsm, rowStepGo)
	})
}

// fuzzFloat turns 8 fuzz bytes into a value in [0, 1], reaching every
// exponent down to the subnormals.
func fuzzFloat(b []byte) float64 {
	u := binary.LittleEndian.Uint64(b)
	if v := math.Float64frombits(u &^ (1 << 63)); v <= 1 {
		return v
	}
	return float64(u>>11) * 0x1p-53
}

// FuzzRowStep fuzzes rowStep's implementations against each other: the Go
// loop against the one-cell recurrence and, where the CPU runs it, the
// assembly against the Go loop, over a fuzzed row, width, offset and p.
func FuzzRowStep(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint64(0x3fe0000000000000))
	f.Add(make([]byte, 8*9), uint8(1), uint64(1))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef"), uint8(3), uint64(0x3ff0000000000000))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, pbits uint64) {
		buf := make([]float64, len(data)/8)
		for i := range buf {
			buf[i] = fuzzFloat(data[8*i:])
		}
		var pb [8]byte
		binary.LittleEndian.PutUint64(pb[:], pbits)
		p := fuzzFloat(pb[:])
		if len(buf) == 0 {
			return
		}
		o := int(off) % min(4, len(buf))
		n := len(buf) - o
		rowStepCase(t, "rowStepGo", rowStepGo, rowStepRef, buf, o, n, p)
		if rowStepAsm != nil {
			rowStepCase(t, "rowStepAsm", rowStepAsm, rowStepGo, buf, o, n, p)
		}
	})
}
