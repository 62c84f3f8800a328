package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"algrec/internal/value"
)

// On-disk format of the disk backend's segment files (snap-N.seg, log-N.seg).
//
// A segment is an 8-byte header followed by a sequence of framed records:
//
//	header  = magic "ALRSEG1\n" (8 bytes)
//	frame   = [kind u8] [payload len u32 LE] [crc32(payload) u32 LE] [payload]
//
// Record kinds:
//
//	recValue — defines the next store-local value ID ("vid", dense from 1):
//	  payload = value kind byte, then
//	    bool:      1 byte (0/1)
//	    int:       zigzag varint
//	    string:    uvarint len + bytes
//	    tuple/set: uvarint count + that many uvarint child vids (already
//	               defined — values are emitted bottom-up)
//
//	recBatch — one atomically applied Batch:
//	  payload = uvarint nMutations, then per mutation:
//	    uvarint name len + name bytes
//	    uvarint arity
//	    flags byte (bit 0 = Reset, bit 1 = Drop)
//	    uvarint nDelete + nDelete rows
//	    uvarint nInsert + nInsert rows
//	  where each row is arity fixed u32 LE vids.
//
//	recRel — a snapshot segment's full relation contents (same layout as one
//	  recBatch mutation with Reset implied and no deletes):
//	    uvarint name len + name, uvarint arity, uvarint nRows + rows.
//
// Durability is record-granular: a reader accepts the longest prefix of
// well-formed frames and treats the first short/garbled frame as the torn
// tail. Only recBatch changes visible state, so a crash between a value
// definition and the batch that uses it just leaves dead dictionary entries.

const segMagic = "ALRSEG1\n"

const (
	recValue = 1
	recBatch = 2
	recRel   = 3
)

// frameHeaderLen is the per-frame overhead: kind + len + crc.
const frameHeaderLen = 1 + 4 + 4

// maxFrameLen bounds a single frame payload (64 MiB) so a corrupt length
// field cannot drive a multi-gigabyte allocation during replay.
const maxFrameLen = 64 << 20

// appendFrame appends one framed record to b. Writers frame records in
// memory and write whole batches with a single file write, so a crash tears
// at most the last write's worth of frames.
func appendFrame(b []byte, kind byte, payload []byte) []byte {
	b, at := beginFrame(b, kind)
	return endFrame(append(b, payload...), at)
}

// beginFrame appends the header of a frame of the given kind to b, leaving
// its length and checksum to endFrame, and returns where the frame starts:
// the payload is then appended in place, with no copy of its own.
func beginFrame(b []byte, kind byte) ([]byte, int) {
	return append(b, kind, 0, 0, 0, 0, 0, 0, 0, 0), len(b)
}

// endFrame fills in the length and checksum of the frame beginFrame started
// at b[at], whose payload is the rest of b.
func endFrame(b []byte, at int) []byte {
	payload := b[at+frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[at+1:at+5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[at+5:at+9], crc32.ChecksumIEEE(payload))
	return b
}

// readFrame reads the next frame from r. It returns io.EOF at a clean end of
// input and io.ErrUnexpectedEOF or errBadFrame for a torn/garbled frame —
// callers replaying a log treat all three as end-of-durable-prefix, while
// snapshot readers treat the latter two as corruption.
func readFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err // io.EOF: clean end
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxFrameLen {
		return 0, nil, errBadFrame
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[5:9]) {
		return 0, nil, errBadFrame
	}
	return hdr[0], payload, nil
}

// errBadFrame marks a frame whose length or checksum is invalid.
var errBadFrame = fmt.Errorf("storage: bad segment frame")

// --- varint helpers over a byte cursor ---

func putUvarint(b []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], x)]...)
}

func putVarint(b []byte, x int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutVarint(tmp[:], x)]...)
}

// cursor is a bounds-checked reader over one record payload. Every decode
// error is sticky in err so callers can check once at the end.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated record payload", ErrCorrupt)
	}
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return x
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return x
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail()
		return 0
	}
	b := c.b[c.off]
	c.off++
	return b
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.fail()
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// --- value records ---

// appendValueRecord encodes one dictionary definition. The children of
// tuples/sets are referenced by their (already assigned) vids.
func appendValueRecord(b []byte, v value.Value, childVID func(i int) uint64, nChildren int) ([]byte, error) {
	switch vv := v.(type) {
	case value.Bool:
		b = append(b, byte(value.KindBool))
		if vv {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case value.Int:
		b = append(b, byte(value.KindInt))
		b = putVarint(b, int64(vv))
	case value.String:
		b = append(b, byte(value.KindString))
		b = putUvarint(b, uint64(len(vv)))
		b = append(b, vv...)
	case value.Tuple:
		b = append(b, byte(value.KindTuple))
		b = putUvarint(b, uint64(nChildren))
		for i := 0; i < nChildren; i++ {
			b = putUvarint(b, childVID(i))
		}
	case value.Set:
		b = append(b, byte(value.KindSet))
		b = putUvarint(b, uint64(nChildren))
		for i := 0; i < nChildren; i++ {
			b = putUvarint(b, childVID(i))
		}
	default:
		return nil, fmt.Errorf("storage: cannot persist value kind %T", v)
	}
	return b, nil
}

// decodedValue is a parsed recValue payload: either a scalar value, or a
// node kind plus child vids to be resolved against the dictionary.
type decodedValue struct {
	scalar value.Value
	kind   value.Kind // KindTuple or KindSet when scalar == nil
	kids   []uint64
}

func decodeValueRecord(payload []byte) (decodedValue, error) {
	c := &cursor{b: payload}
	var dv decodedValue
	switch k := value.Kind(c.byte()); k {
	case value.KindBool:
		dv.scalar = value.Bool(c.byte() != 0)
	case value.KindInt:
		dv.scalar = value.Int(c.varint())
	case value.KindString:
		dv.scalar = value.String(c.bytes(int(c.uvarint())))
	case value.KindTuple, value.KindSet:
		dv.kind = k
		n := c.uvarint()
		if c.err == nil && n > uint64(len(payload)) {
			c.fail()
		}
		dv.kids = make([]uint64, 0, n)
		for i := uint64(0); i < n && c.err == nil; i++ {
			dv.kids = append(dv.kids, c.uvarint())
		}
	default:
		return dv, fmt.Errorf("%w: unknown value kind %d", ErrCorrupt, k)
	}
	return dv, c.err
}

// --- batch records ---

// Bits of a mutation's flags byte.
const (
	mutFlagReset = 1
	mutFlagDrop  = 2
)

// encodedMutation mirrors Mutation with rows already translated to vids.
type encodedMutation struct {
	Rel    string
	Arity  int
	Reset  bool
	Drop   bool
	Delete [][]uint32
	Insert [][]uint32
}

// appendBatchRecord encodes a batch payload.
func appendBatchRecord(b []byte, ms []encodedMutation) []byte {
	b = putUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		b = putUvarint(b, uint64(len(m.Rel)))
		b = append(b, m.Rel...)
		b = putUvarint(b, uint64(m.Arity))
		var flags byte
		if m.Reset {
			flags |= mutFlagReset
		}
		if m.Drop {
			flags |= mutFlagDrop
		}
		b = append(b, flags)
		b = putUvarint(b, uint64(len(m.Delete)))
		for _, row := range m.Delete {
			b = appendRow(b, row)
		}
		b = putUvarint(b, uint64(len(m.Insert)))
		for _, row := range m.Insert {
			b = appendRow(b, row)
		}
	}
	return b
}

func appendRow(b []byte, row []uint32) []byte {
	for _, vid := range row {
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], vid)
		b = append(b, tmp[:]...)
	}
	return b
}

// decodeBatchRecord parses a batch payload.
func decodeBatchRecord(payload []byte) ([]encodedMutation, error) {
	var ms []encodedMutation
	c := &cursor{b: payload}
	n := c.uvarint()
	if c.err == nil && n > uint64(len(payload)) {
		c.fail()
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		var m encodedMutation
		m.Rel = string(c.bytes(int(c.uvarint())))
		m.Arity = int(c.uvarint())
		flags := c.byte()
		m.Reset = flags&mutFlagReset != 0
		m.Drop = flags&mutFlagDrop != 0
		nd := c.uvarint()
		if bad(c, nd, m.Arity) {
			break
		}
		m.Delete = readRows(c, int(nd), m.Arity)
		ni := c.uvarint()
		if bad(c, ni, m.Arity) {
			break
		}
		m.Insert = readRows(c, int(ni), m.Arity)
		ms = append(ms, m)
	}
	if c.err != nil {
		return nil, c.err
	}
	return ms, nil
}

// decodeRelRecord parses a recRel payload.
func decodeRelRecord(payload []byte) (name string, arity int, rows [][]uint32, err error) {
	c := &cursor{b: payload}
	name = string(c.bytes(int(c.uvarint())))
	arity = int(c.uvarint())
	n := c.uvarint()
	if bad(c, n, arity) {
		return "", 0, nil, c.err
	}
	rows = readRows(c, int(n), arity)
	if c.err != nil {
		return "", 0, nil, c.err
	}
	return name, arity, rows, nil
}

// bad guards a declared row count against the remaining payload size (each
// row is arity*4 bytes) so a corrupt count fails fast instead of allocating.
func bad(c *cursor, n uint64, arity int) bool {
	if c.err != nil {
		return true
	}
	if n*uint64(arity)*4 > uint64(len(c.b)-c.off) {
		c.fail()
		return true
	}
	return false
}

func readRows(c *cursor, n, arity int) [][]uint32 {
	rows := make([][]uint32, 0, n)
	flat := make([]uint32, n*arity)
	for i := 0; i < n && c.err == nil; i++ {
		row := flat[i*arity : (i+1)*arity : (i+1)*arity]
		for j := 0; j < arity; j++ {
			row[j] = c.u32()
		}
		rows = append(rows, row)
	}
	return rows
}
