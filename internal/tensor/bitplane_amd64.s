//go:build amd64

#include "textflag.h"

// Bitplane row kernels on AVX-512. Activation bitplanes are
// position-minor (word k of plane p of row r at ((p·words + k)·rows + r)·8
// bytes), so one ZMM load reads one plane word of eight consecutive rows,
// and each weight word is broadcast to all eight lanes. Every lane sums
// exact integer popcounts, so the results equal the scalar kernels'.

// func rowDot2x2AVX512(dst *int64, wt, b *uint64, blocks, words, rows int, negA, negB uint64)
//
// For each block of eight rows: four accumulators S00, S01, S10, S11 of
// popcount(a_i & b_j) over the words (two loads of b, four VPANDQ against
// the broadcast weight words, four VPOPCNTQ, four adds), then
// dst = S00 + wa·S10 + wb·S01 + wa·wb·S11 with |wa| = |wb| = 2, by shifts
// and the negation (x ^ m) − m under each sign mask m.
TEXT ·rowDot2x2AVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ wt+8(FP), R11
	MOVQ b+16(FP), SI
	MOVQ blocks+24(FP), R12
	MOVQ words+32(FP), R13
	MOVQ rows+40(FP), R8
	SHLQ $3, R8                   // word stride in bytes
	MOVQ R8, R9
	IMULQ R13, R9                 // plane stride in bytes
	VPBROADCASTQ negA+48(FP), Z28
	VPBROADCASTQ negB+56(FP), Z29
	VPXORQ Z28, Z29, Z30          // sign of the a1·b1 term

dblock:
	VPXORQ Z0, Z0, Z0             // S00
	VPXORQ Z1, Z1, Z1             // S10: a plane 1, b plane 0
	VPXORQ Z2, Z2, Z2             // S01
	VPXORQ Z3, Z3, Z3             // S11
	MOVQ R11, CX
	MOVQ SI, AX
	MOVQ R13, DX

dword:
	VMOVDQU64 (AX), Z4            // b plane 0, word k, eight rows
	VMOVDQU64 (AX)(R9*1), Z5      // b plane 1
	VPANDQ.BCST (CX), Z4, Z6
	VPANDQ.BCST 8(CX), Z4, Z7
	VPANDQ.BCST (CX), Z5, Z8
	VPANDQ.BCST 8(CX), Z5, Z9
	VPOPCNTQ Z6, Z6
	VPOPCNTQ Z7, Z7
	VPOPCNTQ Z8, Z8
	VPOPCNTQ Z9, Z9
	VPADDQ Z6, Z0, Z0
	VPADDQ Z7, Z1, Z1
	VPADDQ Z8, Z2, Z2
	VPADDQ Z9, Z3, Z3
	ADDQ $16, CX
	ADDQ R8, AX
	DECQ DX
	JNZ  dword

	VPSLLQ $1, Z1, Z1
	VPXORQ Z28, Z1, Z1
	VPSUBQ Z28, Z1, Z1
	VPSLLQ $1, Z2, Z2
	VPXORQ Z29, Z2, Z2
	VPSUBQ Z29, Z2, Z2
	VPSLLQ $2, Z3, Z3
	VPXORQ Z30, Z3, Z3
	VPSUBQ Z30, Z3, Z3
	VPADDQ Z1, Z0, Z0
	VPADDQ Z3, Z2, Z2
	VPADDQ Z2, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ R12
	JNZ  dblock
	VZEROUPPER
	RET

// TERM adds (op VPADDQ) or subtracts (op VPSUBQ) popcount(x & w) into acc.
#define TERM(x, w, op, acc) VPANDQ w, x, Z24; VPOPCNTQ Z24, Z24; op Z24, acc, acc

// HORNER folds shift-class accumulators into one sum: acc += next << 1.
#define HORNER(next, acc) VPSLLQ $1, next, next; VPADDQ next, acc, acc

// func rowPartials23AVX512(dst *int64, wt, xh, xl *uint64, mask *bool, blocks, words, rows int)
//
// The fused executor on the paper-default split: xh unsigned 2-plane
// (weights 1, 2), xl and wl signed 3-plane (1, 2, −4), wh signed 2-plane
// (1, −2). A block whose eight mask bytes are all zero costs one 8-byte
// test. Any other keeps 13 accumulators, one per partial and shift
// class (hl 4, lh 4, ll 5); per word it loads five operand vectors,
// broadcasts five weight words and runs the 21 AND+POPCNT+add/sub terms,
// and at the end of the block folds each partial's classes by shifts and
// stores hl, lh and ll.
TEXT ·rowPartials23AVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ wt+8(FP), R11
	MOVQ xh+16(FP), SI
	MOVQ xl+24(FP), BX
	MOVQ mask+32(FP), R13
	MOVQ blocks+40(FP), R14
	MOVQ words+48(FP), R12
	MOVQ rows+56(FP), R8
	SHLQ $3, R8                   // word stride in bytes, and hl→lh→ll
	MOVQ R8, R10
	IMULQ R12, R10                // plane stride in bytes

pblock:
	MOVQ (R13), AX
	TESTQ AX, AX
	JZ   pnext

	VPXORQ Z0, Z0, Z0             // hl classes 1, 2, 4, 8
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4             // lh classes 1, 2, 4, 8
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8             // ll classes 1, 2, 4, 8, 16
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	MOVQ SI, AX
	MOVQ BX, DX
	MOVQ R11, CX
	MOVQ R12, R9

pword:
	VMOVDQU64 (AX), Z13           // xh0
	VMOVDQU64 (AX)(R10*1), Z14    // xh1
	VMOVDQU64 (DX), Z16           // xl0
	VMOVDQU64 (DX)(R10*1), Z17    // xl1
	VMOVDQU64 (DX)(R10*2), Z18    // xl2
	VPBROADCASTQ (CX), Z19        // wh0
	VPBROADCASTQ 8(CX), Z20       // wh1
	VPBROADCASTQ 16(CX), Z21      // wl0
	VPBROADCASTQ 24(CX), Z22      // wl1
	VPBROADCASTQ 32(CX), Z23      // wl2
	// hl = xh·wl
	TERM(Z13, Z21, VPADDQ, Z0)
	TERM(Z13, Z22, VPADDQ, Z1)
	TERM(Z14, Z21, VPADDQ, Z1)
	TERM(Z14, Z22, VPADDQ, Z2)
	TERM(Z13, Z23, VPSUBQ, Z2)
	TERM(Z14, Z23, VPSUBQ, Z3)
	// lh = xl·wh
	TERM(Z16, Z19, VPADDQ, Z4)
	TERM(Z17, Z19, VPADDQ, Z5)
	TERM(Z16, Z20, VPSUBQ, Z5)
	TERM(Z18, Z19, VPSUBQ, Z6)
	TERM(Z17, Z20, VPSUBQ, Z6)
	TERM(Z18, Z20, VPADDQ, Z7)
	// ll = xl·wl
	TERM(Z16, Z21, VPADDQ, Z8)
	TERM(Z16, Z22, VPADDQ, Z9)
	TERM(Z17, Z21, VPADDQ, Z9)
	TERM(Z17, Z22, VPADDQ, Z10)
	TERM(Z16, Z23, VPSUBQ, Z10)
	TERM(Z18, Z21, VPSUBQ, Z10)
	TERM(Z17, Z23, VPSUBQ, Z11)
	TERM(Z18, Z22, VPSUBQ, Z11)
	TERM(Z18, Z23, VPADDQ, Z12)
	ADDQ $40, CX
	ADDQ R8, AX
	ADDQ R8, DX
	DECQ R9
	JNZ  pword

	HORNER(Z3, Z2)
	HORNER(Z2, Z1)
	HORNER(Z1, Z0)
	VMOVDQU64 Z0, (DI)
	HORNER(Z7, Z6)
	HORNER(Z6, Z5)
	HORNER(Z5, Z4)
	VMOVDQU64 Z4, (DI)(R8*1)
	HORNER(Z12, Z11)
	HORNER(Z11, Z10)
	HORNER(Z10, Z9)
	HORNER(Z9, Z8)
	VMOVDQU64 Z8, (DI)(R8*2)

pnext:
	ADDQ $8, R13
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ R14
	JNZ  pblock
	VZEROUPPER
	RET
