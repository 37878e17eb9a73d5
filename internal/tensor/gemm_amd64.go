//go:build amd64

package tensor

// AVX2/FMA microkernels (gemm_amd64.s), gated on runtime CPU detection:
// the assembly is only reached when CPUID reports FMA+AVX2 and the OS has
// enabled YMM state (OSXSAVE/XGETBV), so the binary stays runnable on
// baseline amd64.

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// fmaKernel6x16 accumulates a full 6×16 tile: c[r*ldc+j] += Σ_p
// ap[p*6+r]*bp[p*16+j] for r<6, j<16, using 12 YMM accumulators and
// FMA. kc must be ≥ 1.
//
//go:noescape
func fmaKernel6x16(ap, bp *float32, kc int, c *float32, ldc int)

// mulAddKernel6x16 is fmaKernel6x16 with each fused multiply-add split
// into a rounded multiply and a rounded add, so each lane performs
// microF32Edge's float32 operations in its order. kc must be ≥ 1.
//
//go:noescape
func mulAddKernel6x16(ap, bp *float32, kc int, c *float32, ldc int)

// mulKernelInt2x8 accumulates a full 2×8 int tile: c[r*ldc+j] += Σ_p
// int64(ap[p*2+r])*int64(bp[p*8+j]), exact int32×int32→int64 products via
// VPMULDQ. kc must be ≥ 1.
//
//go:noescape
func mulKernelInt2x8(ap, bp *int32, kc int, c *int64, ldc int)

// detectAVX2FMA reports whether FMA, AVX2 and OS-enabled YMM state are all
// available.
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xlo, _ := xgetbv()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

var haveAVX2FMA = detectAVX2FMA()

// useAsmF32/useAsmInt route microkernel tiles to the assembly kernels
// (float partial tiles too). Split into two flags so tests can exercise
// the scalar integer path independently.
var (
	useAsmF32 = haveAVX2FMA
	useAsmInt = haveAVX2FMA
)

func microMRF32() int {
	if detectAVX2FMA() {
		return 6
	}
	return 1
}

func microNRF32() int {
	if detectAVX2FMA() {
		return 16
	}
	return 8
}

func microMRInt() int { return 2 }

func microNRInt() int {
	if detectAVX2FMA() {
		return 8
	}
	return 4
}
