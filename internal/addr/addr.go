// Package addr implements physical address mapping for the simulated HBM
// system.
//
// Two mappings are provided. CustomMapper is the PageMove mapping of the
// paper's Figure 8: stack and bank-group indices live in low address bits
// inside the page offset, while the channel index lives in bits just above
// the page offset. A 4 KB page therefore occupies the same channel index in
// every stack, spread over all bank groups — 32 lines of 128 B, two columns
// of one row in each (stack, bank group) pair — which is exactly what lets
// PageMove migrate a page with 32 MIGRATION commands, 16 of them in
// parallel. InterleavedMapper is a traditional mapping with the channel
// index inside the page offset; it maximises single-stream channel
// parallelism but makes channel-confined page placement impossible.
//
// With the Figure 8 layout the unit of memory allocation is a channel group:
// one channel index across all stacks (8 groups of 4 channels by default).
package addr

import (
	"fmt"
	"math/bits"

	"ugpu/internal/config"
)

// Location identifies one cache line in the DRAM hierarchy.
type Location struct {
	Stack     int // HBM stack index
	Channel   int // channel index within the stack
	BankGroup int // bank group index within the channel
	Bank      int // bank index within the bank group
	Row       int // DRAM row
	Col       int // column, in cache-line units within the row
}

// GlobalChannel reports the flat channel id across all stacks.
func (l Location) GlobalChannel(channelsPerStack int) int {
	return l.Stack*channelsPerStack + l.Channel
}

func (l Location) String() string {
	return fmt.Sprintf("stack%d/ch%d/bg%d/bank%d/row%d/col%d",
		l.Stack, l.Channel, l.BankGroup, l.Bank, l.Row, l.Col)
}

// Mapper translates between physical addresses, DRAM locations, and page
// frames.
type Mapper interface {
	// Decode resolves the DRAM location of the cache line containing pa.
	Decode(pa uint64) Location
	// Encode is the inverse of Decode for line-aligned addresses.
	Encode(loc Location) uint64
	// GlobalChannel reports the flat channel id for pa.
	GlobalChannel(pa uint64) int
	// ChannelGroup reports the allocation-unit id of the page holding pa.
	// For mappings where pages span all channel groups it returns 0.
	ChannelGroup(pa uint64) int
	// FrameBase returns the base physical address of the frame-th page
	// frame within a channel group.
	FrameBase(group int, frame uint64) uint64
	// FrameOf is the inverse of FrameBase for page-aligned addresses.
	FrameOf(pa uint64) (group int, frame uint64)
	// FramesPerGroup reports how many page frames each channel group holds.
	FramesPerGroup() uint64
	// Isolating reports whether pages can be confined to a channel group.
	Isolating() bool
}

// field is a contiguous bit field within a physical address.
type field struct {
	shift uint
	bits  uint
}

func (f field) extract(pa uint64) int { return int((pa >> f.shift) & (1<<f.bits - 1)) }

func (f field) insert(pa uint64, v int) uint64 {
	return pa | (uint64(v)&(1<<f.bits-1))<<f.shift
}

func log2(v int) uint {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("addr: %d is not a positive power of two", v))
	}
	return uint(bits.TrailingZeros(uint(v)))
}

// rowBits bounds the modelled DRAM row index. 14 row bits with the default
// geometry give a 16 GiB device, comfortably above every Table 2 footprint.
const rowBits = 14

// CustomMapper implements the Figure 8 PageMove mapping.
//
// Bit layout, LSB to MSB (default geometry in parentheses):
//
//	line offset (7) | stack (2) | bank group (2) | column-low (1) |
//	channel (3) | bank (2) | column-high (3) | row (14)
type CustomMapper struct {
	line, stack, bg, colLow, channel, bank, colHigh, row field
	channelsPerStack                                     int
	pageBytes                                            uint64
	framesPerGroup                                       uint64
}

// NewCustomMapper builds the PageMove mapping for the given configuration.
func NewCustomMapper(c config.Config) *CustomMapper {
	lineBits := log2(c.L1LineBytes)
	stackBits := log2(c.NumStacks)
	bgBits := log2(c.BankGroups)
	pageBits := log2(c.PageBytes)
	inPage := lineBits + stackBits + bgBits
	if inPage > pageBits {
		panic(fmt.Sprintf("addr: line+stack+bank-group bits (%d) exceed page bits (%d)", inPage, pageBits))
	}
	colLowBits := pageBits - inPage
	chBits := log2(c.ChannelsPerStack)
	bankBits := log2(c.BanksPerGroup)
	// Row buffer is fixed at 2 KiB per bank: 16 columns of 128 B by default.
	colBits := log2(2048 / c.L1LineBytes)
	if colBits < colLowBits {
		panic(fmt.Sprintf("addr: page needs %d column bits per bank but a row only has %d", colLowBits, colBits))
	}
	colHighBits := colBits - colLowBits

	m := &CustomMapper{channelsPerStack: c.ChannelsPerStack, pageBytes: uint64(c.PageBytes)}
	shift := uint(0)
	next := func(b uint) field {
		f := field{shift: shift, bits: b}
		shift += b
		return f
	}
	m.line = next(lineBits)
	m.stack = next(stackBits)
	m.bg = next(bgBits)
	m.colLow = next(colLowBits)
	m.channel = next(chBits)
	m.bank = next(bankBits)
	m.colHigh = next(colHighBits)
	m.row = next(rowBits)
	m.framesPerGroup = 1 << (bankBits + colHighBits + rowBits)
	return m
}

// Decode implements Mapper.
func (m *CustomMapper) Decode(pa uint64) Location {
	return Location{
		Stack:     m.stack.extract(pa),
		Channel:   m.channel.extract(pa),
		BankGroup: m.bg.extract(pa),
		Bank:      m.bank.extract(pa),
		Row:       m.row.extract(pa),
		Col:       m.colHigh.extract(pa)<<m.colLow.bits | m.colLow.extract(pa),
	}
}

// Encode implements Mapper.
func (m *CustomMapper) Encode(loc Location) uint64 {
	var pa uint64
	pa = m.stack.insert(pa, loc.Stack)
	pa = m.channel.insert(pa, loc.Channel)
	pa = m.bg.insert(pa, loc.BankGroup)
	pa = m.bank.insert(pa, loc.Bank)
	pa = m.row.insert(pa, loc.Row)
	pa = m.colLow.insert(pa, loc.Col)
	pa = m.colHigh.insert(pa, loc.Col>>m.colLow.bits)
	return pa
}

// GlobalChannel implements Mapper.
func (m *CustomMapper) GlobalChannel(pa uint64) int {
	return m.stack.extract(pa)*m.channelsPerStack + m.channel.extract(pa)
}

// ChannelGroup implements Mapper. With the Figure 8 layout the channel field
// is page-aligned and identical in every stack, so the group id is simply
// the channel index within a stack.
func (m *CustomMapper) ChannelGroup(pa uint64) int { return m.channel.extract(pa) }

// FrameBase implements Mapper. Frames within a group are numbered
// (row, colHigh, bank) from zero.
func (m *CustomMapper) FrameBase(group int, frame uint64) uint64 {
	if uint64(frame) >= m.framesPerGroup {
		panic(fmt.Sprintf("addr: frame %d out of range (group holds %d)", frame, m.framesPerGroup))
	}
	var pa uint64
	pa = m.channel.insert(pa, group)
	pa = m.bank.insert(pa, int(frame&(1<<m.bank.bits-1)))
	frame >>= m.bank.bits
	pa = m.colHigh.insert(pa, int(frame&(1<<m.colHigh.bits-1)))
	frame >>= m.colHigh.bits
	pa = m.row.insert(pa, int(frame))
	return pa
}

// FrameOf implements Mapper.
func (m *CustomMapper) FrameOf(pa uint64) (int, uint64) {
	group := m.channel.extract(pa)
	frame := uint64(m.bank.extract(pa)) |
		uint64(m.colHigh.extract(pa))<<m.bank.bits |
		uint64(m.row.extract(pa))<<(m.bank.bits+m.colHigh.bits)
	return group, frame
}

// FramesPerGroup implements Mapper.
func (m *CustomMapper) FramesPerGroup() uint64 { return m.framesPerGroup }

// Isolating implements Mapper: pages are confined to one channel group.
func (m *CustomMapper) Isolating() bool { return true }

// PageLines enumerates the DRAM locations of every cache line in the page
// containing pa, in line order. With the default geometry this is 32 lines:
// 4 stacks x 4 bank groups x 2 columns.
func (m *CustomMapper) PageLines(pa uint64) []Location {
	return m.AppendPageLines(make([]Location, 0, m.pageBytes>>m.line.bits), pa)
}

// AppendPageLines appends PageLines(pa) to dst and returns the extended
// slice; callers that reuse dst plan page copies without allocating.
func (m *CustomMapper) AppendPageLines(dst []Location, pa uint64) []Location {
	base := pa &^ (m.pageBytes - 1)
	lineBytes := uint64(1) << m.line.bits
	for off := uint64(0); off < m.pageBytes; off += lineBytes {
		dst = append(dst, m.Decode(base+off))
	}
	return dst
}

// InterleavedMapper is a traditional fine-grained interleaving: the global
// channel index sits immediately above the line offset, so consecutive lines
// rotate over all 32 channels and a page cannot be confined to any channel
// subset.
//
// Bit layout, LSB to MSB (default geometry):
//
//	line offset (7) | channel (5, global) | bank group (2) | bank (2) |
//	column (4) | row (14)
type InterleavedMapper struct {
	line, channel, bg, bank, col, row field
	channelsPerStack                  int
	pageBytes                         uint64
	framesTotal                       uint64
}

// NewInterleavedMapper builds the traditional mapping.
func NewInterleavedMapper(c config.Config) *InterleavedMapper {
	m := &InterleavedMapper{channelsPerStack: c.ChannelsPerStack, pageBytes: uint64(c.PageBytes)}
	shift := uint(0)
	next := func(b uint) field {
		f := field{shift: shift, bits: b}
		shift += b
		return f
	}
	m.line = next(log2(c.L1LineBytes))
	m.channel = next(log2(c.NumChannels()))
	m.bg = next(log2(c.BankGroups))
	m.bank = next(log2(c.BanksPerGroup))
	m.col = next(log2(2048 / c.L1LineBytes))
	m.row = next(rowBits)
	pageBits := log2(c.PageBytes)
	m.framesTotal = 1 << (shift - pageBits)
	return m
}

// Decode implements Mapper.
func (m *InterleavedMapper) Decode(pa uint64) Location {
	ch := m.channel.extract(pa)
	return Location{
		Stack:     ch / m.channelsPerStack,
		Channel:   ch % m.channelsPerStack,
		BankGroup: m.bg.extract(pa),
		Bank:      m.bank.extract(pa),
		Row:       m.row.extract(pa),
		Col:       m.col.extract(pa),
	}
}

// Encode implements Mapper.
func (m *InterleavedMapper) Encode(loc Location) uint64 {
	var pa uint64
	pa = m.channel.insert(pa, loc.Stack*m.channelsPerStack+loc.Channel)
	pa = m.bg.insert(pa, loc.BankGroup)
	pa = m.bank.insert(pa, loc.Bank)
	pa = m.col.insert(pa, loc.Col)
	pa = m.row.insert(pa, loc.Row)
	return pa
}

// GlobalChannel implements Mapper.
func (m *InterleavedMapper) GlobalChannel(pa uint64) int { return m.channel.extract(pa) }

// ChannelGroup implements Mapper. Pages span every channel, so there is a
// single degenerate group.
func (m *InterleavedMapper) ChannelGroup(pa uint64) int { return 0 }

// FrameBase implements Mapper: frames are simply consecutive pages.
func (m *InterleavedMapper) FrameBase(group int, frame uint64) uint64 {
	if group != 0 {
		panic(fmt.Sprintf("addr: interleaved mapping has a single group, got %d", group))
	}
	return frame * m.pageBytes
}

// FrameOf implements Mapper.
func (m *InterleavedMapper) FrameOf(pa uint64) (int, uint64) {
	return 0, pa / m.pageBytes
}

// FramesPerGroup implements Mapper.
func (m *InterleavedMapper) FramesPerGroup() uint64 { return m.framesTotal }

// Isolating implements Mapper: pages cannot be confined to a channel subset.
func (m *InterleavedMapper) Isolating() bool { return false }
