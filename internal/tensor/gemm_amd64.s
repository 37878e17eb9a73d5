//go:build amd64

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaKernel6x16(ap, bp *float32, kc int, c *float32, ldc int)
//
// C[r][j] += Σ_p ap[p*6+r] * bp[p*16+j] for r<6, j<16.
// 12 YMM accumulators (6 rows × 2 col-halves), B panel loaded once per p,
// A elements broadcast. Only called with kc >= 1 on AVX2+FMA hardware.
TEXT ·fmaKernel6x16(SB), NOSPLIT, $0-40
	MOVQ ap+0(FP), DI
	MOVQ bp+8(FP), SI
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8                   // row stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

floop:
	VMOVUPS (SI), Y12             // b[0:8]
	VMOVUPS 32(SI), Y13           // b[8:16]
	VBROADCASTSS (DI), Y14        // a0
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VBROADCASTSS 4(DI), Y15       // a1
	VFMADD231PS Y12, Y15, Y2
	VFMADD231PS Y13, Y15, Y3
	VBROADCASTSS 8(DI), Y14       // a2
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VBROADCASTSS 12(DI), Y15      // a3
	VFMADD231PS Y12, Y15, Y6
	VFMADD231PS Y13, Y15, Y7
	VBROADCASTSS 16(DI), Y14      // a4
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VBROADCASTSS 20(DI), Y15      // a5
	VFMADD231PS Y12, Y15, Y10
	VFMADD231PS Y13, Y15, Y11
	ADDQ $24, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  floop

	// C += tile, row by row.
	VADDPS (DX), Y0, Y0
	VMOVUPS Y0, (DX)
	VADDPS 32(DX), Y1, Y1
	VMOVUPS Y1, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y2, Y2
	VMOVUPS Y2, (DX)
	VADDPS 32(DX), Y3, Y3
	VMOVUPS Y3, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y4, Y4
	VMOVUPS Y4, (DX)
	VADDPS 32(DX), Y5, Y5
	VMOVUPS Y5, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y6, Y6
	VMOVUPS Y6, (DX)
	VADDPS 32(DX), Y7, Y7
	VMOVUPS Y7, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y8, Y8
	VMOVUPS Y8, (DX)
	VADDPS 32(DX), Y9, Y9
	VMOVUPS Y9, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y10, Y10
	VMOVUPS Y10, (DX)
	VADDPS 32(DX), Y11, Y11
	VMOVUPS Y11, 32(DX)
	VZEROUPPER
	RET

// func mulAddKernel6x16(ap, bp *float32, kc int, c *float32, ldc int)
//
// fmaKernel6x16's loop with each fused multiply-add split into VMULPS
// into Y15 and VADDPS into the accumulator, so every lane rounds the
// product and then the sum, the float32 operations microF32Edge does in
// the same order. Partial tiles run it into a zeroed stack tile. Only
// called with kc >= 1 on AVX2 hardware.
TEXT ·mulAddKernel6x16(SB), NOSPLIT, $0-40
	MOVQ ap+0(FP), DI
	MOVQ bp+8(FP), SI
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8                   // row stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

mloop:
	VMOVUPS (SI), Y12             // b[0:8]
	VMOVUPS 32(SI), Y13           // b[8:16]
	VBROADCASTSS (DI), Y14        // a0
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y0, Y0
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y1, Y1
	VBROADCASTSS 4(DI), Y14       // a1
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y2, Y2
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y3, Y3
	VBROADCASTSS 8(DI), Y14       // a2
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y4, Y4
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y5, Y5
	VBROADCASTSS 12(DI), Y14      // a3
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y6, Y6
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y7, Y7
	VBROADCASTSS 16(DI), Y14      // a4
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y8, Y8
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y9, Y9
	VBROADCASTSS 20(DI), Y14      // a5
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y10, Y10
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y11, Y11
	ADDQ $24, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  mloop

	// C += tile, row by row.
	VADDPS (DX), Y0, Y0
	VMOVUPS Y0, (DX)
	VADDPS 32(DX), Y1, Y1
	VMOVUPS Y1, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y2, Y2
	VMOVUPS Y2, (DX)
	VADDPS 32(DX), Y3, Y3
	VMOVUPS Y3, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y4, Y4
	VMOVUPS Y4, (DX)
	VADDPS 32(DX), Y5, Y5
	VMOVUPS Y5, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y6, Y6
	VMOVUPS Y6, (DX)
	VADDPS 32(DX), Y7, Y7
	VMOVUPS Y7, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y8, Y8
	VMOVUPS Y8, (DX)
	VADDPS 32(DX), Y9, Y9
	VMOVUPS Y9, 32(DX)
	ADDQ R8, DX
	VADDPS (DX), Y10, Y10
	VMOVUPS Y10, (DX)
	VADDPS 32(DX), Y11, Y11
	VMOVUPS Y11, 32(DX)
	VZEROUPPER
	RET

// func mulKernelInt2x8(ap, bp *int32, kc int, c *int64, ldc int)
//
// C[r][j] += Σ_p int64(ap[p*2+r]) * int64(bp[p*8+j]) for r<2, j<8.
// VPMULDQ multiplies the sign-extended low dwords of each 64-bit lane, so
// every int32×int32 product is an exact int64 — the accumulation is
// bit-identical to the scalar kernels. Only called with kc >= 1 on
// AVX2 hardware.
TEXT ·mulKernelInt2x8(SB), NOSPLIT, $0-40
	MOVQ ap+0(FP), DI
	MOVQ bp+8(FP), SI
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8                   // row stride in bytes (int64)

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

iloop:
	VPMOVSXDQ (SI), Y4            // b[0:4] as int64
	VPMOVSXDQ 16(SI), Y5          // b[4:8] as int64
	VPBROADCASTD (DI), Y6         // a0 in every dword
	VPMULDQ Y4, Y6, Y7
	VPADDQ Y7, Y0, Y0
	VPMULDQ Y5, Y6, Y7
	VPADDQ Y7, Y1, Y1
	VPBROADCASTD 4(DI), Y6        // a1
	VPMULDQ Y4, Y6, Y7
	VPADDQ Y7, Y2, Y2
	VPMULDQ Y5, Y6, Y7
	VPADDQ Y7, Y3, Y3
	ADDQ $8, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  iloop

	VPADDQ (DX), Y0, Y0
	VMOVDQU Y0, (DX)
	VPADDQ 32(DX), Y1, Y1
	VMOVDQU Y1, 32(DX)
	ADDQ R8, DX
	VPADDQ (DX), Y2, Y2
	VMOVDQU Y2, (DX)
	VPADDQ 32(DX), Y3, Y3
	VMOVDQU Y3, 32(DX)
	VZEROUPPER
	RET
