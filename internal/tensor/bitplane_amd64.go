//go:build amd64

package tensor

// AVX-512 bitplane row kernels (bitplane_amd64.s), gated on runtime CPU
// detection like the GEMM kernels: they are reached only when CPUID
// reports AVX512F and AVX512_VPOPCNTDQ and the OS has enabled the opmask
// and ZMM state.

// rowDot2x2AVX512 is rowDot2x2 for blocks full blocks of eight rows of b
// (rows rows in all, words words per plane): wt holds the a row in
// gatherWeights' order, and negA/negB are signMask of each operand's top
// plane. blocks and words must be ≥ 1.
//
//go:noescape
func rowDot2x2AVX512(dst *int64, wt, b *uint64, blocks, words, rows int, negA, negB uint64)

// rowPartials23AVX512 is rowPartials23 for blocks full blocks of eight
// positions: a block whose eight mask bytes are zero is skipped, any
// other computes hl, lh and ll for all eight and stores them at dst,
// dst+rows and dst+2·rows. blocks and words must be ≥ 1.
//
//go:noescape
func rowPartials23AVX512(dst *int64, wt, xh, xl *uint64, mask *bool, blocks, words, rows int)

// detectAVX512Popcnt reports whether AVX512F (CPUID.7:EBX bit 16),
// AVX512_VPOPCNTDQ (CPUID.7:ECX bit 14) and OS-enabled SSE, AVX, opmask
// and ZMM state (XCR0 bits 1, 2, 5, 6 and 7) are all available. The
// kernels use no AVX512DQ instruction: the plane weights are ±2^k, so a
// shift and a conditional negation replace VPMULLQ.
func detectAVX512Popcnt() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	if ecx1&osxsaveBit == 0 {
		return false
	}
	if xlo, _ := xgetbv(); xlo&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const avx512fBit, vpopcntdqBit = 1 << 16, 1 << 14
	return ebx7&avx512fBit != 0 && ecx7&vpopcntdqBit != 0
}

var haveAVX512Popcnt = detectAVX512Popcnt()

// useAsmPopcnt routes full eight-row blocks of the bitplane row kernels
// to the AVX-512 kernels. Tests switch it off to run the scalar kernels.
var useAsmPopcnt = haveAVX512Popcnt
