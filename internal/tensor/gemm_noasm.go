//go:build !amd64

package tensor

// Non-amd64 builds use the scalar register-tiled microkernels only.

var (
	useAsmF32 = false
	useAsmInt = false
)

func microMRF32() int { return 1 }
func microNRF32() int { return 8 }
func microMRInt() int { return 2 }
func microNRInt() int { return 4 }

// fmaKernel6x16 is never called when useAsmF32 is false.
func fmaKernel6x16(ap, bp *float32, kc int, c *float32, ldc int) {
	panic("tensor: fmaKernel6x16 unavailable")
}

// mulAddKernel6x16 is never called when useAsmF32 is false.
func mulAddKernel6x16(ap, bp *float32, kc int, c *float32, ldc int) {
	panic("tensor: mulAddKernel6x16 unavailable")
}

// mulKernelInt2x8 is never called when useAsmInt is false.
func mulKernelInt2x8(ap, bp *int32, kc int, c *int64, ldc int) {
	panic("tensor: mulKernelInt2x8 unavailable")
}

// The bitplane row kernels are scalar off amd64.
var (
	haveAVX512Popcnt = false
	useAsmPopcnt     = false
)

// rowDot2x2AVX512 is never called when useAsmPopcnt is false.
func rowDot2x2AVX512(dst *int64, wt, b *uint64, blocks, words, rows int, negA, negB uint64) {
	panic("tensor: rowDot2x2AVX512 unavailable")
}

// rowPartials23AVX512 is never called when useAsmPopcnt is false.
func rowPartials23AVX512(dst *int64, wt, xh, xl *uint64, mask *bool, blocks, words, rows int) {
	panic("tensor: rowPartials23AVX512 unavailable")
}
