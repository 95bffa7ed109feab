// The checkpoint codec: CheckpointState in the wire format of Go's
// encoding/gob (https://pkg.go.dev/encoding/gob), written and read by
// hand, with no reflection.
//
// A gob stream of one value is the definitions of its types, one message
// each, then one value message. For *CheckpointState the definitions are
// a constant, checkpointTypes: the 25 messages (1,926 bytes) a fresh
// gob.Encoder writes in a process whose first gob use is this type, which
// numbers the types 64 to 88. Pinning them keeps the blob independent of
// what else the process gob-encoded before, since gob numbers types from
// a process-wide counter.
//
// The value message is its byte length, the type id, then the struct's
// fields in gob's rules:
//
//   - each field sent is preceded by the delta from the previous field's
//     number (the first field is number 0, after -1), and a struct ends
//     with a zero delta;
//   - a zero number, an empty string, an empty or nil slice and a nil
//     pointer are omitted; a nested struct and an array are always sent,
//     and so are the engine's channel block and a channel's bank and rank
//     arrays, which the section declares as slices, at their lengths (8
//     channels, 2 bank rows of 16, 2 ranks);
//   - a slice or array is its element count, then every element, zero or
//     not; a zero struct element is just its terminator;
//   - a uint below 128 is one byte, otherwise the negated byte count and
//     the big-endian bytes; an int is the uint (i<<1) for i >= 0 and
//     (^i<<1)|1 below; a float is the uint of its byte-reversed bits; a
//     bool is the uint 1.
//
// One walk per struct type lists its fields in wire order and serves
// both directions, so the writer and the reader cannot disagree on the
// layout. Encoding walks the state twice, once to size the message and
// once to write it, so a blob is written into one buffer of the right
// size. Decoding reads only blobs that carry checkpointTypes and checks
// every count against the bytes left before it allocates. It rejects
// whatever gob would reject, and a little more: a struct that runs out
// before its terminator, bytes left in the message after the value, and
// a channel, bank or rank list missing or not of its array's length.
// Everything it returns is freshly allocated, never aliasing the blob.

package scaleout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"nmppak/internal/dram"
	"nmppak/internal/nmp"
)

// checkpointTypes is the gob type section of every blob: one definition
// message per type reachable from CheckpointState, each commented with
// its type id and name.
const checkpointTypes = "" +
	// 64: CheckpointState
	"\xfe\x01=\x7f\x03\x01\x01\x0fCheckpointState\x01\xff\x80\x00\x01\x14\x01\aVersion\x01\x06\x00\x01\fConfigDigest\x01\x06\x00\x01\vTraceDigest\x01\x06\x00\x01\x05Nodes\x01\x04\x00\x01\x01K\x01\x04\x00\x01\aOverlap\x01\x02\x00\x01\vPartitioner\x01\f\x00\x01\bTopology\x01\f\x00\x01\x05Count\x01\xff\x82\x00\x01\tConstruct\x01\xff\x82\x00\x01\aPerNode\x01\xff\x86\x00\x01\x15PreludeExchangedBytes\x01\x04\x00\x01\nResumeIter\x01\x04\x00\x01\tDurations\x01\xff\x8a\x00\x01\aEngines\x01\xff\xa8\x00\x01\aCompute\x01\x04\x00\x01\bExchange\x01\x04\x00\x01\x15CompactExchangedBytes\x01\x04\x00\x01\tRebalance\x01\xff\xaa\x00\x01\aElastic\x01\xff\xae\x00\x00\x00" +
	// 65: PhaseCycles
	">\xff\x81\x03\x01\x01\vPhaseCycles\x01\xff\x82\x00\x01\x03\x01\aCompute\x01\x04\x00\x01\bExchange\x01\x04\x00\x01\aBarrier\x01\x04\x00\x00\x00" +
	// 67: []scaleout.NodeStats
	"#\xff\x85\x02\x01\x01\x14[]scaleout.NodeStats\x01\xff\x86\x00\x01\xff\x84\x00\x00" +
	// 66: NodeStats
	"d\xff\x83\x03\x01\x01\tNodeStats\x01\xff\x84\x00\x01\x05\x01\x05Reads\x01\x04\x00\x01\x0eKmersExtracted\x01\x04\x00\x01\nKmersOwned\x01\x04\x00\x01\nMacroNodes\x01\x04\x00\x01\rCompactCycles\x01\x04\x00\x00\x00" +
	// 69: [][]int64
	"\x18\xff\x89\x02\x01\x01\t[][]int64\x01\xff\x8a\x00\x01\xff\x88\x00\x00" +
	// 68: []int64
	"\f\xff\x87\x02\x01\x02\xff\x88\x00\x01\x04\x00\x00" +
	// 84: []nmp.EngineState
	" \xff\xa7\x02\x01\x01\x11[]nmp.EngineState\x01\xff\xa8\x00\x01\xff\x8c\x00\x00" +
	// 70: EngineState
	"C\xff\x8b\x03\x01\x01\vEngineState\x01\xff\x8c\x00\x01\x04\x01\x04Next\x01\x04\x00\x01\x05Clock\x01\x04\x00\x01\x03Res\x01\xff\x8e\x00\x01\bChannels\x01\xff\xa6\x00\x00\x00" +
	// 71: Result
	"\xfe\x01%\xff\x8d\x03\x01\x01\x06Result\x01\xff\x8e\x00\x01\x12\x01\x06Cycles\x01\x04\x00\x01\aSeconds\x01\b\x00\x01\x03Mem\x01\xff\x92\x00\x01\tBytesRead\x01\x04\x00\x01\nBytesWrite\x01\x04\x00\x01\vUtilization\x01\b\x00\x01\bTNSamePE\x01\x04\x00\x01\vTNIntraDIMM\x01\x04\x00\x01\vTNInterDIMM\x01\x04\x00\x01\bNodesNMP\x01\x04\x00\x01\bNodesCPU\x01\x04\x00\x01\rCPUBusyCycles\x01\x04\x00\x01\rNMPBusyCycles\x01\x04\x00\x01\x0eHiddenCPUIters\x01\x04\x00\x01\x10ScratchPeakBytes\x01\x04\x00\x01\x10ScratchOverflows\x01\x04\x00\x01\nIterations\x01\x04\x00\x01\aPerIter\x01\xff\x96\x00\x00\x00" +
	// 73: []dram.Stats
	"\x1b\xff\x91\x02\x01\x01\f[]dram.Stats\x01\xff\x92\x00\x01\xff\x90\x00\x00" +
	// 72: Stats
	"\xff\x8e\xff\x8f\x03\x01\x01\x05Stats\x01\xff\x90\x00\x01\t\x01\x05Reads\x01\x04\x00\x01\x06Writes\x01\x04\x00\x01\tBytesRead\x01\x04\x00\x01\fBytesWritten\x01\x04\x00\x01\tActivates\x01\x04\x00\x01\aRowHits\x01\x04\x00\x01\tRowMisses\x01\x04\x00\x01\rBusBusyCycles\x01\x04\x00\x01\bLastDone\x01\x04\x00\x00\x00" +
	// 75: []nmp.IterTiming
	"\x1f\xff\x95\x02\x01\x01\x10[]nmp.IterTiming\x01\xff\x96\x00\x01\xff\x94\x00\x00" +
	// 74: IterTiming
	"\\\xff\x93\x03\x01\x01\nIterTiming\x01\xff\x94\x00\x01\x06\x01\x05Start\x01\x04\x00\x01\aNMPDone\x01\x04\x00\x01\aCPUDone\x01\x04\x00\x01\x03End\x01\x04\x00\x01\bNodesNMP\x01\x04\x00\x01\bNodesCPU\x01\x04\x00\x00\x00" +
	// 83: []dram.ChannelState
	"\"\xff\xa5\x02\x01\x01\x13[]dram.ChannelState\x01\xff\xa6\x00\x01\xff\x98\x00\x00" +
	// 76: ChannelState
	"G\xff\x97\x03\x01\x01\fChannelState\x01\xff\x98\x00\x01\x04\x01\x05Banks\x01\xff\x9e\x00\x01\x05Ranks\x01\xff\xa4\x00\x01\aBusFree\x01\x04\x00\x01\x05Stats\x01\xff\x90\x00\x00\x00" +
	// 79: [][]dram.BankState
	"!\xff\x9d\x02\x01\x01\x12[][]dram.BankState\x01\xff\x9e\x00\x01\xff\x9c\x00\x00" +
	// 78: []dram.BankState
	"\r\xff\x9b\x02\x01\x02\xff\x9c\x00\x01\xff\x9a\x00\x00" +
	// 77: BankState
	"a\xff\x99\x03\x01\x01\tBankState\x01\xff\x9a\x00\x01\x06\x01\aOpenRow\x01\x04\x00\x01\aHasOpen\x01\x02\x00\x01\x05ActAt\x01\x04\x00\x01\bReadyPre\x01\x04\x00\x01\bReadyCmd\x01\x04\x00\x01\tPreDoneAt\x01\x04\x00\x00\x00" +
	// 82: []dram.RankState
	"\x1f\xff\xa3\x02\x01\x01\x10[]dram.RankState\x01\xff\xa4\x00\x01\xff\xa0\x00\x00" +
	// 80: RankState
	"\\\xff\x9f\x03\x01\x01\tRankState\x01\xff\xa0\x00\x01\x05\x01\bActTimes\x01\xff\xa2\x00\x01\x06ActPtr\x01\x04\x00\x01\tLastActAt\x01\x04\x00\x01\tWrDataEnd\x01\x04\x00\x01\vNextRefresh\x01\x04\x00\x00\x00" +
	// 81: [4]int64
	"\x18\xff\xa1\x01\x01\x01\b[4]int64\x01\xff\xa2\x00\x01\x04\x01\b\x00\x00" +
	// 85: RebalanceState
	"\xff\x93\xff\xa9\x03\x01\x01\x0eRebalanceState\x01\xff\xaa\x00\x01\t\x01\x05Table\x01\xff\xac\x00\x01\x03Cum\x01\xff\x88\x00\x01\aLastDur\x01\xff\x88\x00\x01\x06Weight\x01\xff\x88\x00\x01\bLocalTNs\x01\x04\x00\x01\tRemoteTNs\x01\x04\x00\x01\tHaloBytes\x01\x04\x00\x01\nRebalances\x01\x04\x00\x01\rMigratedBytes\x01\x04\x00\x00\x00" +
	// 86: []uint16
	"\x16\xff\xab\x02\x01\x01\b[]uint16\x01\xff\xac\x00\x01\x06\x00\x00" +
	// 87: ElasticState
	"M\xff\xad\x03\x01\x01\fElasticState\x01\xff\xae\x00\x01\x04\x01\x04Live\x01\xff\xb0\x00\x01\bLocalTNs\x01\x04\x00\x01\tRemoteTNs\x01\x04\x00\x01\tHaloBytes\x01\x04\x00\x00\x00" +
	// 88: []bool
	"\x14\xff\xaf\x02\x01\x01\x06[]bool\x01\xff\xb0\x00\x01\x02\x00\x00"

// checkpointTypeID is CheckpointState's type id in checkpointTypes.
const checkpointTypeID = 64

// gobTooBig is gob's ceiling on a message's length and on the bytes of a
// decoded slice.
const gobTooBig = (1 << 30) << (^uint(0) >> 62)

// appendTo appends the checkpoint blob to dst: magic, version tag, the
// type section and the value message. The message is sized first, so dst
// grows at most once: a nil dst becomes a buffer of exactly the blob's
// size, a short one grows by append's rule.
func (ck *CheckpointState) appendTo(dst []byte) ([]byte, error) {
	c := codec{size: true}
	c.message(ck)
	body := c.n
	if body >= gobTooBig {
		return nil, fmt.Errorf("scaleout: checkpoint encode: %d-byte message past gob's limit", body)
	}
	n := len(checkpointMagic) + 4 + len(checkpointTypes) + uintLen(uint64(body)) + body
	if dst == nil {
		dst = make([]byte, 0, n)
	}
	c = codec{b: slices.Grow(dst, n)}
	c.b = append(c.b, checkpointMagic...)
	c.b = binary.LittleEndian.AppendUint32(c.b, ck.Version)
	c.b = append(c.b, checkpointTypes...)
	c.put(uint64(body))
	c.message(ck)
	return c.b, nil
}

// decodeCheckpoint decodes a blob's payload, the bytes after its magic
// and version tag.
func decodeCheckpoint(p []byte) (*CheckpointState, error) {
	if len(p) < len(checkpointTypes) || string(p[:len(checkpointTypes)]) != checkpointTypes {
		return nil, errors.New("scaleout: checkpoint decode (truncated or corrupt blob): not the checkpoint's gob type section")
	}
	c := codec{dec: true, b: p[len(checkpointTypes):]}
	n := c.get()
	if left := uint64(len(c.b)); c.err == nil && n < left {
		return nil, fmt.Errorf("scaleout: checkpoint blob has %d trailing bytes past the payload", left-n)
	} else if n > left {
		c.fail("%d-byte message with %d bytes left", n, left)
	}
	ck := new(CheckpointState)
	c.message(ck)
	if len(c.b) > 0 {
		c.fail("%d bytes past the value", len(c.b))
	}
	if c.err != nil {
		return nil, fmt.Errorf("scaleout: checkpoint decode (truncated or corrupt blob): %w", c.err)
	}
	return ck, nil
}

// codec walks a value message. Encoding (dec false) it writes every field
// sent to b, or in a sizing pass only counts the bytes in n; decoding it
// reads b, the unread rest of the message, and keeps the first error.
type codec struct {
	dec, size bool
	b         []byte
	n         int
	err       error
	// The struct being walked: field is the number of the last field sent
	// or read; when decoding, next is the number of the next field on the
	// wire (-1 past the terminator), still to be read while pend is set.
	field, next int
	pend        bool
}

// put writes a uint, or counts its bytes.
func (c *codec) put(x uint64) {
	if c.size {
		c.n += uintLen(x)
	} else {
		c.b = appendUint(c.b, x)
	}
}

// uintLen is the length of x's gob encoding.
func uintLen(x uint64) int {
	if x < 0x80 {
		return 1
	}
	return 1 + (bits.Len64(x)+7)/8
}

// appendUint appends x's gob encoding to b.
func appendUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	var buf [9]byte
	binary.BigEndian.PutUint64(buf[1:], x)
	k := (bits.Len64(x) + 7) / 8
	buf[8-k] = byte(-k)
	return append(b, buf[8-k:]...)
}

// zigzag is gob's uint form of an int, and zagzig its inverse.
func zigzag(x int64) uint64 {
	if x < 0 {
		return uint64(^x<<1) | 1
	}
	return uint64(x << 1)
}

func zagzig(x uint64) int64 {
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// fail records the first decoding error and drops the unread bytes, so
// every later read returns zero and every walk ends.
func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.b = nil
}

// get reads a uint; most are one byte.
func (c *codec) get() uint64 {
	if len(c.b) > 0 && c.b[0] < 0x80 {
		x := c.b[0]
		c.b = c.b[1:]
		return uint64(x)
	}
	return c.getLong()
}

func (c *codec) getLong() uint64 {
	if len(c.b) == 0 {
		c.fail("unexpected end of message")
		return 0
	}
	k := -int(int8(c.b[0]))
	if k > 8 || k >= len(c.b) {
		c.fail("uint of %d bytes with %d left", k, len(c.b)-1)
		return 0
	}
	var x uint64
	for _, b := range c.b[1 : 1+k] {
		x = x<<8 | uint64(b)
	}
	c.b = c.b[1+k:]
	return x
}

// count reads the length of a slice or string whose elements are size
// bytes in memory. Every element takes at least one byte on the wire, so
// a length past the bytes left is corrupt; gob also caps the elements'
// bytes.
func (c *codec) count(size uintptr) int {
	n := c.get()
	if n > uint64(len(c.b)) || n*uint64(size) > gobTooBig {
		c.fail("%d elements with %d bytes left", n, len(c.b))
		return 0
	}
	return int(n)
}

// frame is the enclosing struct's walk state, saved by open.
type frame struct {
	field, next int
	pend        bool
}

// open starts a struct; close ends it with its zero-delta terminator,
// which decoding requires, and returns to the enclosing struct.
func (c *codec) open() frame {
	f := frame{c.field, c.next, c.pend}
	c.field, c.pend = -1, true
	return f
}

func (c *codec) close(f frame) {
	if !c.dec {
		c.put(0)
	} else if c.pend {
		c.delta()
	}
	if c.dec && c.next != -1 {
		c.fail("field %d out of range", c.next)
	}
	c.field, c.next, c.pend = f.field, f.next, f.pend
}

// delta reads the delta to the next field sent; past maxFields it is out
// of every struct's range.
func (c *codec) delta() {
	const maxFields = 32
	c.pend, c.next = false, -1
	switch d := c.get(); {
	case d > maxFields:
		c.fail("field %d+%d out of range", c.field, d)
	case d > 0:
		c.next = c.field + int(d)
	}
}

// has reports whether field f is on the wire. Encoding, that is send, and
// has writes the field's delta; decoding, it is whether f was sent.
func (c *codec) has(f int, send bool) bool {
	if c.dec {
		return c.at(f)
	}
	if send {
		c.put(uint64(f - c.field))
		c.field = f
	}
	return send
}

// at reports whether decoding reached field f on the wire.
func (c *codec) at(f int) bool {
	if c.pend {
		c.delta()
	}
	if c.next != f {
		return false
	}
	c.field, c.pend = f, true
	return true
}

// send writes scalar field f, the delta (below 128, one byte) and the
// value, or counts its bytes.
func (c *codec) send(f int, x uint64) {
	d := byte(f - c.field)
	c.field = f
	if c.size {
		c.n += 1 + uintLen(x)
	} else {
		c.b = appendUint(append(c.b, d), x)
	}
}

// The scalar field walkers omit a zero value, as gob does; a nested
// struct is always sent.

func num[T ~int | ~int64](c *codec, f int, x *T) {
	if c.dec {
		if c.at(f) {
			*x = T(zagzig(c.get()))
		}
	} else if *x != 0 {
		c.send(f, zigzag(int64(*x)))
	}
}

func unum[T ~uint32 | ~uint64](c *codec, f int, x *T) {
	if c.dec {
		if c.at(f) {
			*x = unsigned[T](c)
		}
	} else if *x != 0 {
		c.send(f, uint64(*x))
	}
}

// unsigned reads a uint into T, which it must fit.
func unsigned[T ~uint16 | ~uint32 | ~uint64](c *codec) T {
	x := c.get()
	if max := ^T(0); x > uint64(max) {
		c.fail("uint %d overflows its field (max %d)", x, max)
		return 0
	}
	return T(x)
}

func (c *codec) float(f int, x *float64) {
	if c.dec {
		if c.at(f) {
			*x = math.Float64frombits(bits.ReverseBytes64(c.get()))
		}
	} else if *x != 0 {
		c.send(f, bits.ReverseBytes64(math.Float64bits(*x)))
	}
}

func (c *codec) flag(f int, x *bool) {
	if c.dec {
		if c.at(f) {
			*x = c.get() != 0
		}
	} else if *x {
		c.send(f, 1)
	}
}

func (c *codec) str(f int, x *string) {
	if !c.has(f, *x != "") {
		return
	}
	if c.dec {
		n := c.count(1)
		*x = string(c.b[:n])
		c.b = c.b[n:]
		return
	}
	c.put(uint64(len(*x)))
	if c.size {
		c.n += len(*x)
	} else {
		c.b = append(c.b, *x...)
	}
}

// sub reports whether nested struct field f is walked: always when
// encoding, when it was sent when decoding.
func (c *codec) sub(f int) bool { return c.has(f, true) }

// ptr reports whether pointer field f is walked: when it is set when
// encoding, when it was sent when decoding, which allocates it.
func ptr[T any](c *codec, f int, p **T) bool {
	if !c.has(f, *p != nil) {
		return false
	}
	if c.dec {
		*p = new(T)
	}
	return true
}

// list walks slice field f up to its elements and returns their number:
// the slice is omitted when empty, and decoding allocates it.
func list[T any](c *codec, f int, s *[]T) int {
	if !c.has(f, len(*s) > 0) {
		return 0
	}
	return elems(c, s)
}

// elems walks a slice's length, which is always sent inside a slice or
// array; decoding allocates the slice, nil when empty, as gob does.
func elems[T any](c *codec, s *[]T) int {
	if !c.dec {
		c.put(uint64(len(*s)))
		return len(*s)
	}
	var z T
	if n := c.count(unsafe.Sizeof(z)); n > 0 {
		*s = make([]T, n)
	}
	return len(*s)
}

// fixed walks the length of a Go array sent as a list or array of n
// elements: encoding writes n, and decoding rejects any other count.
func (c *codec) fixed(n int, what string) {
	if !c.dec {
		c.put(uint64(n))
	} else if got := c.get(); got != uint64(n) {
		c.fail("%s of %d elements, want %d", what, got, n)
	}
}

// need reports whether a field the state always holds was walked; a
// decoded blob that lacks it is corrupt.
func (c *codec) need(sent bool, name string) bool {
	if !sent && c.dec {
		c.fail("no %s field", name)
	}
	return sent
}

// The element walkers send every element, zero or not.

func (c *codec) int64(x *int64) {
	if c.dec {
		*x = zagzig(c.get())
	} else {
		c.put(zigzag(*x))
	}
}

func (c *codec) boolean(x *bool) {
	if c.dec {
		*x = c.get() != 0
	} else if *x {
		c.put(1)
	} else {
		c.put(0)
	}
}

func (c *codec) ints(xs *[]int64) {
	for i := range elems(c, xs) {
		c.int64(&(*xs)[i])
	}
}

func (c *codec) intField(f int, xs *[]int64) {
	for i := range list(c, f, xs) {
		c.int64(&(*xs)[i])
	}
}

// message walks the value message: the type id, then the state.
func (c *codec) message(ck *CheckpointState) {
	if !c.dec {
		c.put(zigzag(checkpointTypeID))
	} else if id := zagzig(c.get()); id != checkpointTypeID {
		c.fail("type id %d, want %d", id, checkpointTypeID)
	}
	c.checkpoint(ck)
}

func (c *codec) checkpoint(ck *CheckpointState) {
	s := c.open()
	unum(c, 0, &ck.Version)
	unum(c, 1, &ck.ConfigDigest)
	unum(c, 2, &ck.TraceDigest)
	num(c, 3, &ck.Nodes)
	num(c, 4, &ck.K)
	c.flag(5, &ck.Overlap)
	c.str(6, &ck.Partitioner)
	c.str(7, &ck.Topology)
	if c.sub(8) {
		c.phase(&ck.Count)
	}
	if c.sub(9) {
		c.phase(&ck.Construct)
	}
	for i := range list(c, 10, &ck.PerNode) {
		c.nodeStats(&ck.PerNode[i])
	}
	num(c, 11, &ck.PreludeExchangedBytes)
	num(c, 12, &ck.ResumeIter)
	for i := range list(c, 13, &ck.Durations) {
		c.ints(&ck.Durations[i])
	}
	for i := range list(c, 14, &ck.Engines) {
		c.engine(&ck.Engines[i])
	}
	num(c, 15, &ck.Compute)
	num(c, 16, &ck.Exchange)
	num(c, 17, &ck.CompactExchangedBytes)
	if ptr(c, 18, &ck.Rebalance) {
		c.rebalance(ck.Rebalance)
	}
	if ptr(c, 19, &ck.Elastic) {
		c.elastic(ck.Elastic)
	}
	c.close(s)
}

func (c *codec) phase(p *PhaseCycles) {
	s := c.open()
	num(c, 0, &p.Compute)
	num(c, 1, &p.Exchange)
	num(c, 2, &p.Barrier)
	c.close(s)
}

func (c *codec) nodeStats(n *NodeStats) {
	s := c.open()
	num(c, 0, &n.Reads)
	num(c, 1, &n.KmersExtracted)
	num(c, 2, &n.KmersOwned)
	num(c, 3, &n.MacroNodes)
	num(c, 4, &n.CompactCycles)
	c.close(s)
}

func (c *codec) engine(st *nmp.EngineState) {
	s := c.open()
	num(c, 0, &st.Next)
	num(c, 1, &st.Clock)
	if c.sub(2) {
		c.result(&st.Res)
	}
	if c.need(ptr(c, 3, &st.Channels), "Channels") {
		c.fixed(len(st.Channels), "Channels list")
		for i := range st.Channels {
			c.channel(&st.Channels[i])
		}
	}
	c.close(s)
}

func (c *codec) result(r *nmp.Result) {
	s := c.open()
	num(c, 0, &r.Cycles)
	c.float(1, &r.Seconds)
	for i := range list(c, 2, &r.Mem) {
		c.stats(&r.Mem[i])
	}
	num(c, 3, &r.BytesRead)
	num(c, 4, &r.BytesWrite)
	c.float(5, &r.Utilization)
	num(c, 6, &r.TNSamePE)
	num(c, 7, &r.TNIntraDIMM)
	num(c, 8, &r.TNInterDIMM)
	num(c, 9, &r.NodesNMP)
	num(c, 10, &r.NodesCPU)
	num(c, 11, &r.CPUBusyCycles)
	num(c, 12, &r.NMPBusyCycles)
	num(c, 13, &r.HiddenCPUIters)
	num(c, 14, &r.ScratchPeakBytes)
	num(c, 15, &r.ScratchOverflows)
	num(c, 16, &r.Iterations)
	for i := range list(c, 17, &r.PerIter) {
		c.iterTiming(&r.PerIter[i])
	}
	c.close(s)
}

func (c *codec) iterTiming(t *nmp.IterTiming) {
	s := c.open()
	num(c, 0, &t.Start)
	num(c, 1, &t.NMPDone)
	num(c, 2, &t.CPUDone)
	num(c, 3, &t.End)
	num(c, 4, &t.NodesNMP)
	num(c, 5, &t.NodesCPU)
	c.close(s)
}

func (c *codec) stats(st *dram.Stats) {
	s := c.open()
	num(c, 0, &st.Reads)
	num(c, 1, &st.Writes)
	num(c, 2, &st.BytesRead)
	num(c, 3, &st.BytesWritten)
	num(c, 4, &st.Activates)
	num(c, 5, &st.RowHits)
	num(c, 6, &st.RowMisses)
	num(c, 7, &st.BusBusyCycles)
	num(c, 8, &st.LastDone)
	c.close(s)
}

func (c *codec) channel(ch *dram.ChannelState) {
	s := c.open()
	if c.need(c.sub(0), "Banks") {
		c.fixed(len(ch.Banks), "Banks list")
		for r := range ch.Banks {
			c.fixed(len(ch.Banks[r]), "bank row")
			for b := range ch.Banks[r] {
				c.bank(&ch.Banks[r][b])
			}
		}
	}
	if c.need(c.sub(1), "Ranks") {
		c.fixed(len(ch.Ranks), "Ranks list")
		for r := range ch.Ranks {
			c.rank(&ch.Ranks[r])
		}
	}
	num(c, 2, &ch.BusFree)
	if c.sub(3) {
		c.stats(&ch.Stats)
	}
	c.close(s)
}

func (c *codec) bank(b *dram.BankState) {
	s := c.open()
	num(c, 0, &b.OpenRow)
	c.flag(1, &b.HasOpen)
	num(c, 2, &b.ActAt)
	num(c, 3, &b.ReadyPre)
	num(c, 4, &b.ReadyCmd)
	num(c, 5, &b.PreDoneAt)
	c.close(s)
}

func (c *codec) rank(r *dram.RankState) {
	s := c.open()
	if c.sub(0) {
		c.fixed(len(r.ActTimes), "ActTimes array")
		for i := range r.ActTimes {
			c.int64(&r.ActTimes[i])
		}
	}
	num(c, 1, &r.ActPtr)
	num(c, 2, &r.LastActAt)
	num(c, 3, &r.WrDataEnd)
	num(c, 4, &r.NextRefresh)
	c.close(s)
}

func (c *codec) rebalance(rs *RebalanceState) {
	s := c.open()
	for i := range list(c, 0, &rs.Table) {
		if c.dec {
			rs.Table[i] = unsigned[uint16](c)
		} else {
			c.put(uint64(rs.Table[i]))
		}
	}
	c.intField(1, &rs.Cum)
	c.intField(2, &rs.LastDur)
	c.intField(3, &rs.Weight)
	num(c, 4, &rs.LocalTNs)
	num(c, 5, &rs.RemoteTNs)
	num(c, 6, &rs.HaloBytes)
	num(c, 7, &rs.Rebalances)
	num(c, 8, &rs.MigratedBytes)
	c.close(s)
}

func (c *codec) elastic(es *ElasticState) {
	s := c.open()
	for i := range list(c, 0, &es.Live) {
		c.boolean(&es.Live[i])
	}
	num(c, 1, &es.LocalTNs)
	num(c, 2, &es.RemoteTNs)
	num(c, 3, &es.HaloBytes)
	c.close(s)
}
