package container

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// oversizedPacketStream is a 30-byte input: a valid stream header and
// one packet header whose size field claims 1 GiB.
func oversizedPacketStream(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteHeader(StreamInfo{Width: 64, Height: 64, FPS: 30, FrameCount: 1}); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 14)
	binary.BigEndian.PutUint32(hdr, 1<<30)
	return append(buf.Bytes(), hdr...)
}

// footerEntry returns the offset of index entry i in an indexed stream.
func footerEntry(data []byte, i int) int {
	count := int(binary.BigEndian.Uint32(data[len(data)-8:]))
	return len(data) - 8 - count*16 + i*16
}

// reorderedIndexStream swaps the first two chunk offsets of an indexed
// stream and zeroes their checksums, so a reader that trusts the order
// would see a backwards chunk with a matching (empty) checksum.
func reorderedIndexStream(data []byte) []byte {
	out := bytes.Clone(data)
	a, b := footerEntry(out, 0), footerEntry(out, 1)
	offA := binary.BigEndian.Uint64(out[a:])
	offB := binary.BigEndian.Uint64(out[b:])
	binary.BigEndian.PutUint64(out[a:], offB)
	binary.BigEndian.PutUint64(out[b:], offA)
	binary.BigEndian.PutUint32(out[a+12:], 0)
	binary.BigEndian.PutUint32(out[b+12:], 0)
	return out
}

// TestOversizedPacketAllocatesWhatIsPresent feeds a header claiming a
// 1 GiB packet with nothing behind it: the read fails as truncated
// after allocating for the bytes present, not for the claim.
func TestOversizedPacketAllocatesWhatIsPresent(t *testing.T) {
	data := oversizedPacketStream(t)
	if len(data) != 30 {
		t.Fatalf("crafted input is %d bytes, want 30", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(data)).ReadPacket()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 1 GiB packet accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading a 30-byte input allocated %d bytes", alloc)
	}
}

// TestChunkPacketCannotOverrunChunk rewrites the first chunk's
// keyframe size field to claim more bytes than the chunk holds: the
// chunk read rejects it before reading the payload.
func TestChunkPacketCannotOverrunChunk(t *testing.T) {
	data := indexedTestStream(t)
	ir, err := OpenIndexed(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	off := ir.Chunks()[0].Offset
	span := ir.Chunks()[1].Offset - off
	binary.BigEndian.PutUint32(data[off:], uint32(span))
	if _, err := ir.ReadChunk(0); err == nil || !strings.Contains(err.Error(), "overruns its chunk") {
		t.Fatalf("packet larger than its chunk: got %v, want an overrun error", err)
	}
}

// TestOpenIndexedRejectsReorderedIndex: chunk offsets must increase.
// Read in the stored order, the swapped pair would make chunk 0 a
// backwards byte range that reads as an empty, checksum-valid chunk.
func TestOpenIndexedRejectsReorderedIndex(t *testing.T) {
	data := reorderedIndexStream(indexedTestStream(t))
	if _, err := OpenIndexed(bytes.NewReader(data)); err == nil {
		t.Fatal("index with decreasing chunk offsets accepted")
	}
}

// TestOpenIndexedRejectsMissingSentinel overwrites the OIDX sentinel
// that must precede the index entries.
func TestOpenIndexedRejectsMissingSentinel(t *testing.T) {
	data := indexedTestStream(t)
	copy(data[footerEntry(data, 0)-4:], "XXXX")
	if _, err := OpenIndexed(bytes.NewReader(data)); err == nil {
		t.Fatal("index without its sentinel accepted")
	}
}

// parserSeeds are the fuzz seeds of both container parsers: a real
// muxed and indexed stream plus the crafted inputs above. The same
// inputs are checked in under testdata/fuzz.
func parserSeeds(f *testing.F) [][]byte {
	stream := indexedTestStream(f)
	return [][]byte{stream, oversizedPacketStream(f), reorderedIndexStream(stream)}
}

// FuzzOpenIndexed: any input either fails to open or yields chunk
// offsets that increase inside the packet data, and reading every chunk
// returns packets or an error — never a panic or an allocation the
// input does not pay for.
func FuzzOpenIndexed(f *testing.F) {
	for _, s := range parserSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ir, err := OpenIndexed(bytes.NewReader(data))
		if err != nil {
			return
		}
		prev := int64(headerSize - 1)
		for i, e := range ir.Chunks() {
			if e.Offset <= prev || e.Offset >= ir.end {
				t.Fatalf("chunk %d at offset %d accepted (previous %d, data ends at %d)", i, e.Offset, prev, ir.end)
			}
			prev = e.Offset
		}
		_ = ir.VerifyChunks()
		for i := range ir.Chunks() {
			_, _ = ir.ReadChunk(i)
		}
	})
}

// FuzzReadAll: any input either fails or yields packets that re-mux
// into a stream reading back to the same header and packets.
func FuzzReadAll(f *testing.F) {
	for _, s := range parserSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		info, pkts, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteHeader(info); err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if err := w.WritePacket(p); err != nil {
				t.Fatal(err)
			}
		}
		info2, pkts2, err := NewReader(&buf).ReadAll()
		if err != nil || info2 != info || !reflect.DeepEqual(pkts2, pkts) {
			t.Fatalf("accepted stream does not survive a re-mux: %v", err)
		}
	})
}
