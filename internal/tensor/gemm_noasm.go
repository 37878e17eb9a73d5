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
