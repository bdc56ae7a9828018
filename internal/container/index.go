package container

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"openvcu/internal/codec"
)

// Chunk index: an optional footer mapping keyframes (closed-GOP chunk
// starts) to byte offsets, so storage-side readers can fetch and decode a
// single chunk — the access pattern behind serving, reprocessing and
// §4.4's per-chunk fault correlation.

// IndexEntry locates one chunk.
type IndexEntry struct {
	// Offset is the byte position of the chunk's keyframe packet header.
	Offset int64
	// DisplayIdx is the keyframe's display index.
	DisplayIdx int
	// CRC is the chunk-level checksum: CRC-32 accumulated over the
	// payloads of every packet in the chunk, in stream order. Per-packet
	// CRCs catch transit bit flips, but a tamper that rewrites a packet
	// and its own CRC is self-consistent; the chunk CRC pins the whole
	// chunk to what the writer emitted, so escaped corruption is still
	// detectable at the delivery boundary (§4.4).
	CRC uint32
}

var indexMagic = [4]byte{'O', 'I', 'D', 'X'}

// WriteIndex appends the chunk-index footer. Call after the last packet;
// the stream remains readable by plain Readers (they stop at the footer).
func (cw *Writer) WriteIndex() error {
	if !cw.wrote {
		return fmt.Errorf("container: WriteHeader not called")
	}
	buf := make([]byte, 0, len(cw.index)*16+12)
	buf = append(buf, indexMagic[:]...) // sentinel for sequential readers
	for _, e := range cw.index {
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.Offset))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.DisplayIdx))
		buf = binary.BigEndian.AppendUint32(buf, e.CRC)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cw.index)))
	buf = append(buf, indexMagic[:]...)
	_, err := cw.w.Write(buf)
	return err
}

// IndexedReader reads a container with random chunk access.
type IndexedReader struct {
	r       io.ReadSeeker
	info    StreamInfo
	entries []IndexEntry
	// end is the byte offset where packet data stops (the footer start).
	end int64
}

// OpenIndexed parses the header and the index footer.
func OpenIndexed(r io.ReadSeeker) (*IndexedReader, error) {
	info, err := NewReader(r).ReadHeader()
	if err != nil {
		return nil, err
	}
	fileEnd, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if fileEnd < 8 {
		return nil, fmt.Errorf("container: too short for an index")
	}
	tail := make([]byte, 8)
	if _, err := r.Seek(fileEnd-8, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, tail); err != nil {
		return nil, err
	}
	if [4]byte(tail[4:8]) != indexMagic {
		return nil, fmt.Errorf("container: no chunk index footer")
	}
	count := int(binary.BigEndian.Uint32(tail[:4]))
	// The entries are preceded by a 4-byte sentinel; packet data ends
	// before it, and starts after the 16-byte stream header.
	footerStart := fileEnd - 8 - int64(count)*16
	if footerStart-4 < headerSize {
		return nil, fmt.Errorf("container: corrupt index (count %d)", count)
	}
	if _, err := r.Seek(footerStart-4, io.SeekStart); err != nil {
		return nil, err
	}
	raw := make([]byte, 4+count*16)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, err
	}
	if [4]byte(raw[:4]) != indexMagic {
		return nil, fmt.Errorf("container: corrupt index (no sentinel before %d entries)", count)
	}
	ir := &IndexedReader{r: r, info: info, end: footerStart - 4}
	prev := int64(headerSize - 1)
	for i := 0; i < count; i++ {
		e := raw[4+i*16:]
		off := int64(binary.BigEndian.Uint64(e))
		// Chunks start strictly in stream order inside the packet data,
		// so every chunk spans a non-empty byte range.
		if off <= prev || off >= ir.end {
			return nil, fmt.Errorf("container: corrupt index (chunk %d at offset %d, after %d, data ends at %d)", i, off, prev, ir.end)
		}
		prev = off
		ir.entries = append(ir.entries, IndexEntry{
			Offset:     off,
			DisplayIdx: int(int32(binary.BigEndian.Uint32(e[8:]))),
			CRC:        binary.BigEndian.Uint32(e[12:]),
		})
	}
	return ir, nil
}

// Info returns the stream header.
func (ir *IndexedReader) Info() StreamInfo { return ir.info }

// Chunks returns the chunk directory.
func (ir *IndexedReader) Chunks() []IndexEntry { return ir.entries }

// ReadChunk returns the packets of chunk i (from its keyframe up to the
// next chunk's keyframe), independently decodable because chunks are
// closed GOPs. The chunk-level CRC is verified over the packet payloads
// read, so per-packet-consistent tampering is still caught here.
func (ir *IndexedReader) ReadChunk(i int) ([]codec.Packet, error) {
	if i < 0 || i >= len(ir.entries) {
		return nil, fmt.Errorf("container: chunk %d of %d", i, len(ir.entries))
	}
	start := ir.entries[i].Offset
	end := ir.end
	if i+1 < len(ir.entries) {
		end = ir.entries[i+1].Offset
	}
	if _, err := ir.r.Seek(start, io.SeekStart); err != nil {
		return nil, err
	}
	lr := &io.LimitedReader{R: ir.r, N: end - start}
	var pkts []codec.Packet
	var crc uint32
	cr := &Reader{r: lr, read: true, info: ir.info, chunk: lr}
	for {
		p, err := cr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, p.Data)
		pkts = append(pkts, p)
	}
	if crc != ir.entries[i].CRC {
		return nil, fmt.Errorf("container: chunk %d checksum mismatch (got %08x want %08x)",
			i, crc, ir.entries[i].CRC)
	}
	return pkts, nil
}

// VerifyChunks re-reads every chunk, which verifies each chunk-level
// checksum — the delivery-boundary integrity sweep over a stored
// stream.
func (ir *IndexedReader) VerifyChunks() error {
	for i := range ir.entries {
		if _, err := ir.ReadChunk(i); err != nil {
			return err
		}
	}
	return nil
}
