// Package bits is a swarwidth-analyzer fixture: constant shifts past
// the operand width, 64-bit masks that break the lane layout, and
// narrowing conversions of lane accumulators. The positives need the
// dataflow layer's operand typing and constant evaluation — the shift
// count and operand width live in different declarations.
package bits

const (
	laneMSB   = 0x8080808080808080 // byte-periodic: fine
	laneLo16  = 0x00ff00ff00ff00ff // 16-bit-periodic: fine
	brokenMSB = 0x8080808080808070 // low byte breaks the lane layout
	wordBits  = 64
)

func foldOK(x uint64) uint64 {
	return (x & laneMSB) >> 7
}

func shiftPastWidth(x uint64) uint64 {
	return x << 64 // want "shift count 64 >= bit width 64 of x"
}

func shiftPastWidth32(x uint32) uint32 {
	return x >> 32 // want "shift count 32 >= bit width 32 of x"
}

func shiftByConstPastWidth(x uint64) uint64 {
	return x >> wordBits // want "shift count 64 >= bit width 64 of x"
}

func shiftInsideWidth(x uint64) uint64 {
	return x >> 63
}

func variableShift(x uint64, n uint) uint64 {
	return x << n // non-constant count: not checked
}

func badMaskConst(x uint64) uint64 {
	return x & brokenMSB // want "not byte/16/32-bit lane-periodic"
}

func badMaskLiteral(x uint64) uint64 {
	return x | 0x00ff00ff00ff00f0 // want "not byte/16/32-bit lane-periodic"
}

func goodMasks(x uint64) uint64 {
	return (x & laneLo16) | (x &^ laneMSB)
}

func truncatedFold(pix []uint8) uint16 {
	var acc uint64
	for _, p := range pix {
		acc += uint64(p)
	}
	return uint16(acc) // want "truncates accumulator acc from 64 to 16 bits"
}

func signReinterpret(pix []uint8) int64 {
	var acc uint64
	for _, p := range pix {
		acc += uint64(p)
	}
	return int64(acc) // want "reinterprets the sign of accumulator acc"
}

func foldedOK(pix []uint8) uint64 {
	var acc uint64
	for _, p := range pix {
		acc += uint64(p)
	}
	return acc
}

// narrowingNonAccumulator extracts a byte from a non-accumulated
// local: routine bit packing, not checked.
func narrowingNonAccumulator(x uint64) uint8 {
	low := x & 0xff
	return uint8(low)
}

func suppressedTruncation(pix []uint8) uint32 {
	var acc uint64
	for _, p := range pix {
		acc += uint64(p)
	}
	//lint:ignore swarwidth fixture accepted narrowing, accumulator is bounded by len(pix)*255
	return uint32(acc)
}

const (
	lane0 = iota * 16
	lane1
	lane2
	lane3
	laneEnd // 64: one past the last 16-bit lane
)

func shiftByIotaConst(x uint64) uint64 {
	return x >> laneEnd // want "shift count 64 >= bit width 64 of x"
}

// shadowedWidth shifts the closure's own 32-bit x, not the outer
// 64-bit one.
func shadowedWidth(x uint64) uint32 {
	f := func(x uint32) uint32 {
		return x >> 32 // want "shift count 32 >= bit width 32 of x"
	}
	return f(uint32(x))
}
