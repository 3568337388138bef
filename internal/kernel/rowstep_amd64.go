package kernel

func init() {
	if hasAVX2() {
		rowStepAsm = rowStepAVX2
	}
}

// rowStepAVX2 is rowStep four cells per instruction: each lane computes
// w[i−1]·p and w[i]·q with VMULPD and adds them with VADDPD, never a fused
// multiply-add, so every cell carries rowStepGo's bits.
//
//go:noescape
func rowStepAVX2(w []float64, p, q float64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// hasAVX2 reports whether the CPU runs AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2 // XCR0: SSE and AVX state enabled
	if xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
