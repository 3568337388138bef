package kernel

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"umine/internal/benchenv"
	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/parallel"
	"umine/internal/prob"
)

// The hot-loop benchmark behind `make bench-kernels` and BENCH_kernels.json:
//
//   - the intersection kernels (Pair/KWay) against their scalar references
//     across postings density bands — the dense band is where the 4-wide
//     skip-ahead and bounds-check elimination must show up;
//   - the DP verification kernel (FreqTailDP) against its reference,
//     prob.PBFreqProbDP, on the borderline and wide candidate shapes.
//
// End-to-end mining time is perfbench's job: its cold-exact workload runs
// the accident @ 0.01 DPNB mine these kernels dominate (see
// BENCHMARK.json). TestWriteKernelsBench (gated by BENCH_KERNELS_OUT)
// writes the JSON document.

// kernelsBandReport is one postings-density row of BENCH_kernels.json.
type kernelsBandReport struct {
	Band    string  `json:"band"`
	Density float64 `json:"density"`
	// DensityB is the second list's density when the band is skewed (0 means
	// both lists share Density).
	DensityB float64 `json:"density_b,omitempty"`
	Span     int     `json:"span"`
	Len      int     `json:"postings_len"`
	// Pair*: the two-list merge (the level-2 fast path).
	PairKernelNsOp int64   `json:"pair_kernel_ns_op"`
	PairScalarNsOp int64   `json:"pair_scalar_ns_op"`
	PairSpeedup    float64 `json:"pair_speedup"`
	// KWay*: the generic driver on four lists.
	KWayKernelNsOp int64   `json:"kway_kernel_ns_op"`
	KWayScalarNsOp int64   `json:"kway_scalar_ns_op"`
	KWaySpeedup    float64 `json:"kway_speedup"`
}

// kernelsTailReport is one DP-verification row of BENCH_kernels.json.
type kernelsTailReport struct {
	Shape      string  `json:"shape"`
	N          int     `json:"n"`
	MinCount   int     `json:"min_count"`
	KernelNsOp int64   `json:"kernel_ns_op"`
	ScalarNsOp int64   `json:"scalar_ns_op"`
	Speedup    float64 `json:"speedup"`
}

// kernelsBenchReport is the BENCH_kernels.json document.
type kernelsBenchReport struct {
	Benchmark  string              `json:"benchmark"`
	Bands      []kernelsBandReport `json:"bands"`
	Tail       []kernelsTailReport `json:"tail"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Env        benchenv.Env        `json:"env"`
	Timestamp  string              `json:"timestamp"`
}

// benchPostings builds one postings list: ascending TIDs where each of span
// transactions is included with the band's density, quantized probabilities.
func benchPostings(rng *rand.Rand, span int, density float64) List {
	var l List
	for t := 0; t < span; t++ {
		if rng.Float64() < density {
			l.TIDs = append(l.TIDs, uint32(t))
			l.Probs = append(l.Probs, float64(1+rng.Intn(64))/64)
		}
	}
	return l
}

func benchTailProbs(rng *rand.Rand, n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = float64(1+rng.Intn(64)) / 64
	}
	return ps
}

// TestWriteKernelsBench runs the kernel benchmarks and writes
// BENCH_kernels.json to the path in BENCH_KERNELS_OUT (skipped when unset —
// `make bench-kernels` sets it). It enforces the acceptance margins: the
// optimized kernels beat their scalar references on the dense band and
// both DP shapes.
func TestWriteKernelsBench(t *testing.T) {
	out := os.Getenv("BENCH_KERNELS_OUT")
	if out == "" {
		t.Skip("BENCH_KERNELS_OUT not set; run via `make bench-kernels`")
	}
	report := &kernelsBenchReport{
		Benchmark:  "hot-loop-kernels",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Env:        benchenv.Capture(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	// bestOf3 times each benchmark in three interleaved rounds and keeps the
	// minimum ns/op. The enforced margins (dense band, DP tail) are smaller
	// than the drift between single-shot testing.Benchmark calls a minute
	// apart on a busy box; alternating rounds put kernel and scalar under the
	// same conditions, and the minimum is the least-disturbed run.
	bestOf3 := func(fns ...func(*testing.B)) []int64 {
		mins := make([]int64, len(fns))
		for round := 0; round < 3; round++ {
			for i, fn := range fns {
				if ns := testing.Benchmark(fn).NsPerOp(); round == 0 || ns < mins[i] {
					mins[i] = ns
				}
			}
		}
		return mins
	}

	// Intersection kernels per density band. Three synthetic equal-density
	// bands plus a skewed one probe the dispatcher's two strategies in
	// isolation; the enforced "dense" band below measures the mix a dense
	// database's level-2 join actually runs. The chunk size is whatever the
	// adaptive policy picks for the span, as in a real mine.
	rng := rand.New(rand.NewSource(31))
	const span = 20000
	bands := []struct {
		name     string
		density  float64
		densityB float64 // 0 = same as density
	}{{"sparse", 0.02, 0}, {"medium", 0.2, 0}, {"balanced-dense", 0.7, 0}, {"skewed", 0.7, 0.02}}
	for _, band := range bands {
		db := band.densityB
		if db == 0 {
			db = band.density
		}
		a := benchPostings(rng, span, band.density)
		b := benchPostings(rng, span, db)
		four := []List{a, b, benchPostings(rng, span, band.density), benchPostings(rng, span, db)}
		chunk := parallel.ChunkSizeForSpan(span, int(float64(span)*(band.density+db))*2)
		row := kernelsBandReport{Band: band.name, Density: band.density, DensityB: band.densityB, Span: span, Len: len(a.TIDs)}
		row.PairKernelNsOp = testing.Benchmark(func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				Pair(a, b, chunk, false)
			}
		}).NsPerOp()
		row.PairScalarNsOp = testing.Benchmark(func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				PairScalar(a, b, chunk, false)
			}
		}).NsPerOp()
		row.KWayKernelNsOp = testing.Benchmark(func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				KWay(four, chunk, false)
			}
		}).NsPerOp()
		row.KWayScalarNsOp = testing.Benchmark(func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				KWayScalar(four, chunk, false)
			}
		}).NsPerOp()
		row.PairSpeedup = float64(row.PairScalarNsOp) / float64(row.PairKernelNsOp)
		row.KWaySpeedup = float64(row.KWayScalarNsOp) / float64(row.KWayKernelNsOp)
		t.Logf("band %s (len %d, chunk %d): pair %d vs %d ns/op (%.2fx), kway %d vs %d ns/op (%.2fx)",
			band.name, row.Len, chunk, row.PairKernelNsOp, row.PairScalarNsOp, row.PairSpeedup,
			row.KWayKernelNsOp, row.KWayScalarNsOp, row.KWaySpeedup)
		report.Bands = append(report.Bands, row)
	}
	// The dense band: the multiply-accumulate work a dense database's
	// level-2 join actually issues. accident is the dense profile — at the
	// benchmark threshold its frequent items' postings cover 20–98% of the
	// transactions, so the join mixes balanced merges with skewed ones,
	// exactly the mix the dispatcher exists for. One op sweeps every pair
	// (and each consecutive quadruple) of those items' postings through the
	// kernel, with the adaptive chunk size the real mine would use.
	{
		ddb := dataset.Accident.GenerateUncertain(0.01, 3)
		vert := ddb.Vertical()
		postingsLen := ddb.ItemTIDCounts()
		minLen := uint32(ddb.N() / 5) // the MinESup 0.2 support floor, as a length cut
		var items []core.Item
		for i := 0; i < vert.NumItems(); i++ {
			if postingsLen[i] >= minLen {
				items = append(items, core.Item(i))
			}
		}
		sort.Slice(items, func(i, j int) bool {
			li, lj := postingsLen[items[i]], postingsLen[items[j]]
			if li != lj {
				return li > lj
			}
			return items[i] < items[j]
		})
		if len(items) > 64 {
			items = items[:64]
		}
		lists := make([]List, len(items))
		totalLen := 0
		for i, it := range items {
			tids, probs := vert.Postings(it)
			lists[i] = List{TIDs: tids, Probs: probs}
			totalLen += len(tids)
		}
		chunk := parallel.ChunkSizeForSpan(ddb.N(), ddb.NumUnits())
		row := kernelsBandReport{
			Band:    "dense",
			Density: float64(totalLen) / float64(len(lists)*ddb.N()),
			Span:    ddb.N(),
			Len:     len(lists[0].TIDs),
		}
		pairKernelFn := func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				for x := 0; x < len(lists); x++ {
					for y := x + 1; y < len(lists); y++ {
						Pair(lists[x], lists[y], chunk, false)
					}
				}
			}
		}
		pairScalarFn := func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				for x := 0; x < len(lists); x++ {
					for y := x + 1; y < len(lists); y++ {
						PairScalar(lists[x], lists[y], chunk, false)
					}
				}
			}
		}
		kwayKernelFn := func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				for x := 0; x+4 <= len(lists); x += 4 {
					KWay(lists[x:x+4], chunk, false)
				}
			}
		}
		kwayScalarFn := func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				for x := 0; x+4 <= len(lists); x += 4 {
					KWayScalar(lists[x:x+4], chunk, false)
				}
			}
		}
		mins := bestOf3(pairKernelFn, pairScalarFn, kwayKernelFn, kwayScalarFn)
		row.PairKernelNsOp, row.PairScalarNsOp = mins[0], mins[1]
		row.KWayKernelNsOp, row.KWayScalarNsOp = mins[2], mins[3]
		row.PairSpeedup = float64(row.PairScalarNsOp) / float64(row.PairKernelNsOp)
		row.KWaySpeedup = float64(row.KWayScalarNsOp) / float64(row.KWayKernelNsOp)
		t.Logf("band dense (N=%d, %d lists, longest %d, chunk %d): pair %d vs %d ns/op (%.2fx), kway %d vs %d ns/op (%.2fx)",
			ddb.N(), len(lists), row.Len, chunk, row.PairKernelNsOp, row.PairScalarNsOp, row.PairSpeedup,
			row.KWayKernelNsOp, row.KWayScalarNsOp, row.KWaySpeedup)
		if row.PairSpeedup <= 1 {
			t.Errorf("dense band: pair kernel (%d ns/op) does not beat scalar (%d ns/op)", row.PairKernelNsOp, row.PairScalarNsOp)
		}
		report.Bands = append(report.Bands, row)
	}

	// DP verification kernel: the borderline shape (support barely above the
	// min count — what count pruning lets through) and the wide shape (the
	// whole database matches, worst case for the skipped triangles).
	for _, shape := range []struct {
		name        string
		n, minCount int
	}{{"borderline", 800, 681}, {"wide", 3400, 681}} {
		ps := benchTailProbs(rng, shape.n)
		row := kernelsTailReport{Shape: shape.name, N: shape.n, MinCount: shape.minCount}
		mins := bestOf3(func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				FreqTailDP(ps, shape.minCount)
			}
		}, func(b2 *testing.B) {
			for i := 0; i < b2.N; i++ {
				prob.PBFreqProbDP(ps, shape.minCount)
			}
		})
		row.KernelNsOp, row.ScalarNsOp = mins[0], mins[1]
		row.Speedup = float64(row.ScalarNsOp) / float64(row.KernelNsOp)
		t.Logf("tail %s: %d vs %d ns/op (%.2fx)", shape.name, row.KernelNsOp, row.ScalarNsOp, row.Speedup)
		if row.Speedup <= 1 {
			t.Errorf("tail %s: DP kernel (%d ns/op) does not beat scalar (%d ns/op)", shape.name, row.KernelNsOp, row.ScalarNsOp)
		}
		report.Tail = append(report.Tail, row)
	}

	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
