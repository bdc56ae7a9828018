// Package video is a bigcopy-analyzer fixture: it lives under a hot
// directory, so large by-value copies are flagged.
package video

// BigBlock is ~1024 bytes: well over the 256-byte threshold.
type BigBlock struct {
	Pix [1024]uint8
}

// SmallMeta is well under the threshold.
type SmallMeta struct {
	W, H int
}

func sumBlock(b BigBlock) int { // want "parameter BigBlock copies"
	total := 0
	for _, p := range b.Pix {
		total += int(p)
	}
	return total
}

func sumBlockPtr(b *BigBlock) int { // fine: pointer
	total := 0
	for _, p := range b.Pix {
		total += int(p)
	}
	return total
}

func (b BigBlock) Checksum() int { // want "receiver BigBlock copies"
	return int(b.Pix[0])
}

func useMeta(m SmallMeta) int { // fine: small struct
	return m.W * m.H
}

func sumAll() int {
	total := 0
	bs := make([]BigBlock, 4)
	for _, b := range bs { // want "range copies"
		total += int(b.Pix[0])
	}
	return total
}

func bigArray(a [512]uint8) int { // want "parameter uint8 array copies"
	return int(a[0])
}

//lint:ignore bigcopy fixture demonstrates an accepted by-value copy on a cold path
func suppressedCopy(b BigBlock) int {
	return int(b.Pix[0])
}

// PaddedRow's fields sum to 180 bytes, but each bool is padded to its
// int64 neighbour's alignment: the value is 320 bytes.
type PaddedRow struct {
	Cells [20]struct {
		On bool
		V  int64
	}
}

func rowSum(r PaddedRow) int64 { // want "parameter PaddedRow copies ~320 bytes"
	return r.Cells[0].V
}
