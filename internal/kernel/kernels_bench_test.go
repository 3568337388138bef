package kernel

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"umine/internal/benchenv"
	"umine/internal/prob"
)

// The hot-loop benchmark behind `make bench-kernels` and BENCH_kernels.json:
// the DP verification kernel (FreqTailDP) against its reference,
// prob.PBFreqProbDP, on the borderline and wide candidate shapes.
//
// End-to-end mining time is perfbench's job: its cold-exact workload runs
// the accident @ 0.01 DPNB mine this kernel dominates (see
// BENCHMARK.json). TestWriteKernelsBench (gated by BENCH_KERNELS_OUT)
// writes the JSON document.

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
	Tail       []kernelsTailReport `json:"tail"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Env        benchenv.Env        `json:"env"`
	Timestamp  string              `json:"timestamp"`
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
// DP kernel beats its reference on both shapes.
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
	// minimum ns/op. The enforced margins can be smaller than the drift
	// between single-shot testing.Benchmark calls a minute apart on a busy
	// box; alternating rounds put kernel and scalar under the same
	// conditions, and the minimum is the least-disturbed run.
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

	rng := rand.New(rand.NewSource(31))
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
