// Package vm implements the GPU virtual memory management that PageMove
// extends (Section 4.4 of the UGPU paper).
//
// Each application has its own virtual address space and page table. The
// GPU driver model keeps, per application, a free physical page list
// organised by memory channel group (the allocation unit under the
// customized address mapping) and the page count allocated to each group.
// Page faults allocate frames from the least-used currently-allocated group.
//
// When memory channels are reallocated between applications, pages located
// on de-allocated groups must migrate to remaining groups, and applications
// that gained groups migrate pages in to use the new bandwidth. The Manager
// plans those migrations (source and destination line locations for the
// dram package) and commits them (page table update, frame recycling) when
// the copy completes.
//
// For end-to-end data correctness checking, every physical frame carries a
// content tag derived from its owning (application, virtual page). Reads
// verify the tag; migrations must preserve it.
//
// All bookkeeping is dense: VPNs are small and contiguous (every tenant maps
// [0, footprint)), so page tables are slices indexed by VPN, and frames are
// numbered per channel group from zero, so frame records are slices indexed
// by frame number. Every scan therefore visits pages in ascending VPN order.
package vm

import (
	"fmt"

	"ugpu/internal/addr"
	"ugpu/internal/config"
)

// Stats holds cumulative VM event counters.
type Stats struct {
	Faults     uint64 // demand-zero page faults
	Migrations uint64 // page migrations committed
	Allocated  uint64 // frames currently allocated
	Freed      uint64 // frames recycled
	Remaps     uint64 // slow-path remaps (emergency spill, no hardware copy)
}

// Per-VPN flag bits of space.flags.
const (
	// flagMigrating marks a page with an in-flight migration.
	flagMigrating uint8 = 1 << iota
	// flagPending marks a page that must move even though its group is still
	// allowed — the traditional-mapping reshuffle of the UGPU-Ori ablation,
	// where a channel reallocation reorganises the whole footprint.
	flagPending
)

// space is one application's address space and driver-side bookkeeping.
type space struct {
	id int
	// pt maps VPN -> physical page base + 1; 0 means unmapped (frame 0 of
	// group 0 sits at physical address 0). flags holds each VPN's flag bits.
	// Both grow on demand and always have the same length.
	pt    []uint64
	flags []uint8
	// Running counts: mapped VPNs, and VPNs carrying each flag.
	pages, migrating, pending int

	groupN  []int  // resident pages per channel group
	groups  []int  // currently allocated channel groups
	allowed []bool // groups[i] membership test
	// rebalancing mirrors Section 4.4's channel-list register state for an
	// app with newly allocated channels: accesses to pages on over-loaded
	// groups fault and migrate until page counts balance.
	rebalancing bool
}

func newSpace(id, groups int) *space {
	return &space{id: id, groupN: make([]int, groups), allowed: make([]bool, groups)}
}

// lookup returns the physical page base mapped at vpn.
func (s *space) lookup(vpn uint64) (pa uint64, ok bool) {
	if vpn < uint64(len(s.pt)) {
		if e := s.pt[vpn]; e != 0 {
			return e - 1, true
		}
	}
	return 0, false
}

// has reports whether vpn carries flag f.
func (s *space) has(vpn uint64, f uint8) bool {
	return vpn < uint64(len(s.flags)) && s.flags[vpn]&f != 0
}

// setFlags adds flag bits to a mapped vpn, keeping the running counts.
func (s *space) setFlags(vpn uint64, f uint8) {
	added := f &^ s.flags[vpn]
	s.flags[vpn] |= f
	s.count(added, 1)
}

// clearFlags removes flag bits from a mapped vpn, keeping the running counts.
func (s *space) clearFlags(vpn uint64, f uint8) {
	removed := f & s.flags[vpn]
	s.flags[vpn] &^= f
	s.count(removed, -1)
}

func (s *space) count(f uint8, d int) {
	if f&flagMigrating != 0 {
		s.migrating += d
	}
	if f&flagPending != 0 {
		s.pending += d
	}
}

// balanced reports whether the app's per-group page counts are within 25%
// of the mean.
func (s *space) balanced() bool {
	if len(s.groups) == 0 {
		return true
	}
	target := s.pages/len(s.groups) + 1
	for _, g := range s.groups {
		if s.groupN[g] > target+target/4 {
			return false
		}
	}
	return true
}

// frameRec is the driver's record of one physical frame.
type frameRec struct {
	tag  uint64 // content tag of the data the frame holds
	vpn  uint64 // owning page
	app  int32  // owning application; -1 = unmapped (free or a reserved migration destination)
	mark uint32 // CheckInvariants visit stamp
}

// freeFrame is the record of a frame no page maps.
var freeFrame = frameRec{app: -1}

// Manager owns all address spaces and physical frame accounting.
type Manager struct {
	mapper *addr.CustomMapper

	spaces []*space

	// Frame allocation per channel group: frames[g] records every frame ever
	// handed out (its length is the group's bump cursor) and recycled[g] is
	// the LIFO free stack. Frames are global (not per app): ownership is
	// whoever mapped them.
	frames   [][]frameRec
	recycled [][]uint64

	// deadGroup marks channel groups lost to a hardware fault: no frame may
	// be allocated there, and frames freed there are not recycled (the
	// silicon is gone).
	deadGroup []bool

	// Scratch for the scans: the last stamp CheckInvariants wrote into
	// frameRec.mark, and one count per channel group.
	mark      uint32
	perGroupN []int

	stats Stats
}

// NewManager builds a Manager for the given number of applications. Channel
// groups must be assigned per app with SetGroups before faults occur.
func NewManager(cfg config.Config, mapper *addr.CustomMapper, numApps int) *Manager {
	ng := cfg.ChannelGroups()
	m := &Manager{
		mapper:    mapper,
		spaces:    make([]*space, numApps),
		frames:    make([][]frameRec, ng),
		recycled:  make([][]uint64, ng),
		deadGroup: make([]bool, ng),
		perGroupN: make([]int, ng),
	}
	for i := range m.spaces {
		m.spaces[i] = newSpace(i, ng)
	}
	return m
}

// AddSpace appends a fresh empty address space and returns its id. The
// online serving layer uses it when a tenant attaches to a slot beyond the
// spaces created at construction.
func (m *Manager) AddSpace() int {
	id := len(m.spaces)
	m.spaces = append(m.spaces, newSpace(id, len(m.frames)))
	return id
}

// ReleaseSpace unmaps every page of the application and recycles the backing
// frames (tenant departure). The caller must guarantee quiescence: no
// in-flight migration, translation, or access may still reference the space —
// ReleaseSpace panics if a migration is marked in flight. Frames on dead
// channel groups are not recycled (the silicon is gone). Frames are freed in
// ascending VPN order so the recycle stacks — and therefore every later
// allocation — are deterministic. The space object itself survives for reuse
// by a later tenant on the same slot; its group set is cleared.
func (m *Manager) ReleaseSpace(app int) int {
	sp := m.spaces[app]
	if sp.migrating != 0 {
		panic(fmt.Sprintf("vm: releasing app %d with %d migrations in flight", app, sp.migrating))
	}
	n := sp.pages
	for _, e := range sp.pt {
		if e == 0 {
			continue
		}
		m.release(e - 1)
		m.stats.Freed++
		m.stats.Allocated--
	}
	sp.pt, sp.flags = sp.pt[:0], sp.flags[:0]
	sp.pages, sp.pending = 0, 0
	clear(sp.groupN)
	sp.rebalancing = false
	sp.groups = sp.groups[:0]
	clear(sp.allowed)
	return n
}

// PageCount reports the application's resident page count.
func (m *Manager) PageCount(app int) int { return m.spaces[app].pages }

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// ContentTag is the deterministic expected tag of (app, vpn); frames must
// always carry the tag of their current owner page.
func ContentTag(app int, vpn uint64) uint64 {
	x := uint64(app+1)*0x9E3779B97F4A7C15 ^ vpn*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x
}

// SetGroups assigns the application's channel groups. It does not migrate
// anything by itself: callers use PagesOutside and PlanMigration to drain
// pages from de-allocated groups (lazily on access or via a background
// scrubber, Section 4.4).
func (m *Manager) SetGroups(app int, groups []int) {
	sp := m.spaces[app]
	sp.groups = append(sp.groups[:0], groups...)
	clear(sp.allowed)
	for _, g := range groups {
		sp.allowed[g] = true
	}
}

// Translate looks up a virtual page. ok is false on a page-table miss.
func (m *Manager) Translate(app int, vpn uint64) (pa uint64, ok bool) {
	return m.spaces[app].lookup(vpn)
}

// InAllowedGroup reports whether a physical page lies in one of the
// application's currently allocated channel groups — the check the L2 TLB's
// channel-allocation register performs in Section 4.4.
func (m *Manager) InAllowedGroup(app int, pa uint64) bool {
	return m.spaces[app].allowed[m.mapper.ChannelGroup(pa)]
}

// leastUsedGroup picks the allocated group holding the fewest of the app's
// pages — the paper's "allocating physical memory pages from the least used
// memory channels".
func (m *Manager) leastUsedGroup(sp *space) int {
	best, bestN := -1, int(^uint(0)>>1)
	for _, g := range sp.groups {
		if m.deadGroup[g] {
			continue // defensive: faulted groups never receive new frames
		}
		if n := sp.groupN[g]; n < bestN {
			best, bestN = g, n
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("vm: app %d has no live channel groups", sp.id))
	}
	return best
}

func (m *Manager) allocFrame(group int) uint64 {
	if m.deadGroup[group] {
		panic(fmt.Sprintf("vm: allocation from dead channel group %d", group))
	}
	if n := len(m.recycled[group]); n > 0 {
		f := m.recycled[group][n-1]
		m.recycled[group] = m.recycled[group][:n-1]
		return f
	}
	f := uint64(len(m.frames[group]))
	if f >= m.mapper.FramesPerGroup() {
		panic(fmt.Sprintf("vm: channel group %d out of physical frames", group))
	}
	m.frames[group] = append(m.frames[group], freeFrame)
	return f
}

// frame returns the record of the frame at physical page base pa.
func (m *Manager) frame(pa uint64) *frameRec {
	g, f := m.mapper.FrameOf(pa)
	return &m.frames[g][f]
}

// release clears the record of the frame at pa and, unless its group is
// dead, pushes it on the group's free stack.
func (m *Manager) release(pa uint64) {
	g, f := m.mapper.FrameOf(pa)
	m.frames[g][f] = freeFrame
	if !m.deadGroup[g] {
		m.recycled[g] = append(m.recycled[g], f)
	}
}

// HandleFault allocates a physical frame for (app, vpn) and maps it. It
// panics if the page is already mapped; callers must Translate first.
func (m *Manager) HandleFault(app int, vpn uint64) uint64 {
	sp := m.spaces[app]
	if _, dup := sp.lookup(vpn); dup {
		panic(fmt.Sprintf("vm: double fault for app %d vpn %#x", app, vpn))
	}
	group := m.leastUsedGroup(sp)
	frame := m.allocFrame(group)
	pa := m.mapper.FrameBase(group, frame)
	if n := int(vpn) + 1; n > len(sp.pt) {
		sp.pt = append(sp.pt, make([]uint64, n-len(sp.pt))...)
		sp.flags = append(sp.flags, make([]uint8, n-len(sp.flags))...)
	}
	sp.pt[vpn] = pa + 1
	sp.pages++
	sp.groupN[group]++
	m.frames[group][frame] = frameRec{tag: ContentTag(app, vpn), vpn: vpn, app: int32(app)}
	m.stats.Faults++
	m.stats.Allocated++
	return pa
}

// CheckRead verifies that the frame backing (app, vpn) carries the content
// tag of that page. It returns an error describing any corruption.
func (m *Manager) CheckRead(app int, vpn uint64) error {
	pa, ok := m.Translate(app, vpn)
	if !ok {
		return fmt.Errorf("vm: app %d vpn %#x not mapped", app, vpn)
	}
	if got, want := m.frame(pa).tag, ContentTag(app, vpn); got != want {
		return fmt.Errorf("vm: app %d vpn %#x at %#x holds tag %#x, want %#x", app, vpn, pa, got, want)
	}
	return nil
}

// Migration is a planned page move: copy Src lines to Dst lines, then call
// Commit.
type Migration struct {
	App      int
	VPN      uint64
	SrcPA    uint64
	DstPA    uint64
	Src, Dst []addr.Location

	m *Manager
}

// PlanMigration allocates a destination frame for (app, vpn) in the
// least-used allowed group and returns the copy plan. It returns nil if the
// page is unmapped, already migrating, or already in the best group.
// toGroup >= 0 forces a specific destination group.
func (m *Manager) PlanMigration(app int, vpn uint64, toGroup int) *Migration {
	sp := m.spaces[app]
	pa, ok := sp.lookup(vpn)
	if !ok || sp.has(vpn, flagMigrating) {
		return nil
	}
	srcGroup := m.mapper.ChannelGroup(pa)
	dstGroup := toGroup
	if dstGroup < 0 {
		dstGroup = m.leastUsedGroup(sp)
		if srcGroup == dstGroup && sp.has(vpn, flagPending) {
			// For a forced reshuffle any other allowed group will do;
			// otherwise there is nothing to move.
			for _, g := range sp.groups {
				if g != srcGroup {
					dstGroup = g
					break
				}
			}
		}
	}
	if srcGroup == dstGroup {
		// Nothing to move; a forced reshuffle to nowhere is just cleared.
		sp.clearFlags(vpn, flagPending)
		return nil
	}
	frame := m.allocFrame(dstGroup)
	dstPA := m.mapper.FrameBase(dstGroup, frame)
	sp.setFlags(vpn, flagMigrating)
	return &Migration{
		App:   app,
		VPN:   vpn,
		SrcPA: pa,
		DstPA: dstPA,
		Src:   m.mapper.PageLines(pa),
		Dst:   m.mapper.PageLines(dstPA),
		m:     m,
	}
}

// rehome points (sp, vpn) at dstPA, whose frame takes over the content tag
// of srcPA's (the data moved with the page), and frees srcPA's frame.
func (m *Manager) rehome(sp *space, vpn, srcPA, dstPA uint64) {
	sp.pt[vpn] = dstPA + 1
	sp.groupN[m.mapper.ChannelGroup(srcPA)]--
	sp.groupN[m.mapper.ChannelGroup(dstPA)]++
	sp.clearFlags(vpn, flagMigrating|flagPending)
	*m.frame(dstPA) = frameRec{tag: m.frame(srcPA).tag, vpn: vpn, app: int32(sp.id)}
	m.release(srcPA)
}

// Commit finalises the migration: the page table now points at the new
// frame, the content tag moves with the data, and the old frame is
// recycled.
func (mig *Migration) Commit() {
	m := mig.m
	sp := m.spaces[mig.App]
	m.rehome(sp, mig.VPN, mig.SrcPA, mig.DstPA)
	m.stats.Migrations++
	m.stats.Freed++
	if sp.rebalancing && sp.balanced() {
		sp.rebalancing = false // Section 4.4: driver clears the register
	}
}

// Abort releases the reserved destination frame without moving the page.
func (mig *Migration) Abort() {
	m := mig.m
	m.release(mig.DstPA)
	m.spaces[mig.App].clearFlags(mig.VPN, flagMigrating)
}

// FailGroup marks a channel group as lost to a hardware fault. Frames on the
// group stay mapped (their data is still being drained by emergency
// migration) but no new frame is ever allocated there and freed frames are
// not recycled.
func (m *Manager) FailGroup(group int) {
	m.deadGroup[group] = true
	m.recycled[group] = nil
}

// GroupDead reports whether a channel group has been failed.
func (m *Manager) GroupDead(group int) bool { return m.deadGroup[group] }

// PagesOnGroup lists the app's resident pages on the given channel group in
// ascending VPN order, skipping pages already migrating.
func (m *Manager) PagesOnGroup(app, group int) []uint64 {
	sp := m.spaces[app]
	left := sp.groupN[group]
	if left == 0 {
		return nil
	}
	out := make([]uint64, 0, left)
	for vpn, e := range sp.pt {
		if e == 0 || m.mapper.ChannelGroup(e-1) != group {
			continue
		}
		if sp.flags[vpn]&flagMigrating == 0 {
			out = append(out, uint64(vpn))
		}
		if left--; left == 0 {
			break
		}
	}
	return out
}

// RemapPage synchronously rehomes (app, vpn) onto a frame in the least-used
// live allowed group, preserving the content tag — the slow-path spill used
// when an emergency hardware copy off a dying channel has exhausted its
// retries (the driver re-reads the page through the degraded channel and
// rewrites it; the simulator charges that cost at the call site). ok is
// false if the page is unmapped or already on a live allowed group's frame
// with nothing to do.
func (m *Manager) RemapPage(app int, vpn uint64) (newPA uint64, ok bool) {
	sp := m.spaces[app]
	pa, mapped := sp.lookup(vpn)
	if !mapped {
		return 0, false
	}
	dstGroup := m.leastUsedGroup(sp)
	if dstGroup == m.mapper.ChannelGroup(pa) {
		return pa, false
	}
	dstPA := m.mapper.FrameBase(dstGroup, m.allocFrame(dstGroup))
	m.rehome(sp, vpn, pa, dstPA) // the driver copied the data
	m.stats.Remaps++
	m.stats.Freed++
	return dstPA, true
}

// MarkAllPending flags every resident page of the application for forced
// migration — the UGPU-Ori behaviour, where losing the customized address
// mapping means a channel reallocation reorganises data across the whole
// DRAM hierarchy.
func (m *Manager) MarkAllPending(app int) {
	sp := m.spaces[app]
	for vpn, e := range sp.pt {
		if e != 0 {
			sp.setFlags(uint64(vpn), flagPending)
		}
	}
}

// NeedsMigration reports whether an access to (app, vpn) backed by pa
// requires a blocking page migration: the frame is outside the allowed
// channel groups, or the page is flagged for a forced reshuffle. The access
// cannot proceed until the page moves (its channel belongs to another app).
func (m *Manager) NeedsMigration(app int, vpn, pa uint64) bool {
	sp := m.spaces[app]
	return !sp.allowed[m.mapper.ChannelGroup(pa)] || sp.has(vpn, flagPending)
}

// WantsRebalance reports whether an access to (app, vpn) backed by pa
// should trigger a non-blocking migration toward newly gained channels: the
// channel-list register is set and the page sits on an over-loaded group.
// The access itself proceeds in place (the frame is still owned).
func (m *Manager) WantsRebalance(app int, vpn, pa uint64) bool {
	sp := m.spaces[app]
	if !sp.rebalancing || sp.has(vpn, flagMigrating) {
		return false
	}
	g := m.mapper.ChannelGroup(pa)
	if !sp.allowed[g] {
		return false // handled by NeedsMigration
	}
	target := sp.pages/len(sp.groups) + 1
	return sp.groupN[g] > target+target/4
}

// SetRebalancing sets the app's channel-list register state: while true,
// accesses to pages on over-loaded groups migrate toward under-used
// (typically newly allocated) groups. The flag self-clears when page counts
// balance (checked on each migration commit).
func (m *Manager) SetRebalancing(app int, on bool) {
	m.spaces[app].rebalancing = on
}

// Rebalancing reports the app's channel-list register state.
func (m *Manager) Rebalancing(app int) bool { return m.spaces[app].rebalancing }

// PagesToMigrate lists up to limit pages that a background scrubber should
// move, each in ascending VPN order: pages outside the allowed groups first,
// then forced-reshuffle pages.
func (m *Manager) PagesToMigrate(app int, limit int) []uint64 {
	out := m.PagesOutside(app, limit)
	sp := m.spaces[app]
	if left := sp.pending; left > 0 && (limit <= 0 || len(out) < limit) {
		for vpn, f := range sp.flags {
			if f&flagPending == 0 {
				continue
			}
			// Pages outside the allowed groups were listed above.
			if f&flagMigrating == 0 && sp.allowed[m.mapper.ChannelGroup(sp.pt[vpn]-1)] {
				out = append(out, uint64(vpn))
				if limit > 0 && len(out) >= limit {
					break
				}
			}
			if left--; left == 0 {
				break
			}
		}
	}
	return out
}

// PagesOutside lists, in ascending VPN order, up to limit resident pages
// that are NOT in the application's allowed groups — the pages a background
// scrubber or fault-driven path must migrate after a reallocation. limit <= 0
// means all.
func (m *Manager) PagesOutside(app int, limit int) []uint64 {
	sp := m.spaces[app]
	left := 0
	for g, n := range sp.groupN {
		if !sp.allowed[g] {
			left += n
		}
	}
	var out []uint64
	for vpn := 0; left > 0 && vpn < len(sp.pt); vpn++ {
		e := sp.pt[vpn]
		if e == 0 || sp.allowed[m.mapper.ChannelGroup(e-1)] {
			continue
		}
		left--
		if sp.flags[vpn]&flagMigrating != 0 {
			continue
		}
		out = append(out, uint64(vpn))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// ImbalancePages lists, in ascending VPN order, up to limit pages that should
// move to newly allocated (under-used) groups to balance page counts across
// the app's groups — Section 4.4's inbound migration for apps that gained
// channels. Pages are drawn from the groups holding more than their share.
func (m *Manager) ImbalancePages(app int, limit int) []uint64 {
	sp := m.spaces[app]
	if len(sp.groups) < 2 || sp.pages == 0 {
		return nil
	}
	target := sp.pages / len(sp.groups)
	excess, left := m.perGroupN, 0
	clear(excess)
	for _, g := range sp.groups {
		if n := sp.groupN[g] - target - 1; n > 0 {
			excess[g] = n
			left += n
		}
	}
	var out []uint64
	for vpn := 0; left > 0 && vpn < len(sp.pt); vpn++ {
		e := sp.pt[vpn]
		if e == 0 || sp.flags[vpn]&flagMigrating != 0 {
			continue
		}
		if g := m.mapper.ChannelGroup(e - 1); excess[g] > 0 {
			out = append(out, uint64(vpn))
			excess[g]--
			left--
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out
}

// GroupLoad reports the app's resident page count per channel group.
func (m *Manager) GroupLoad(app int) []int {
	return append([]int(nil), m.spaces[app].groupN...)
}

// nextMark returns a stamp no frame record carries yet.
func (m *Manager) nextMark() uint32 {
	m.mark++
	if m.mark == 0 { // wrapped: wipe old stamps so none can match
		for _, recs := range m.frames {
			for f := range recs {
				recs[f].mark = 0
			}
		}
		m.mark = 1
	}
	return m.mark
}

// CheckInvariants validates global frame bookkeeping: every mapped page's
// frame is owned by exactly that page, no frame is mapped twice, the
// per-group and per-flag counts match the page tables, and every free list
// holds distinct, unowned frames below its group's bump cursor. It walks the
// tables linearly, stamping frame records to detect duplicates, and
// allocates nothing unless it reports an error.
func (m *Manager) CheckInvariants() error {
	mapped := m.nextMark()
	count := m.perGroupN
	for app, sp := range m.spaces {
		clear(count)
		pages, migrating, pending := 0, 0, 0
		for i, e := range sp.pt {
			vpn, f := uint64(i), sp.flags[i]
			if e == 0 {
				if f != 0 {
					return fmt.Errorf("vm: app %d vpn %#x unmapped but flagged %#x", app, vpn, f)
				}
				continue
			}
			pages++
			if f&flagMigrating != 0 {
				migrating++
			}
			if f&flagPending != 0 {
				pending++
			}
			pa := e - 1
			g, fr := m.mapper.FrameOf(pa)
			if fr >= uint64(len(m.frames[g])) {
				return fmt.Errorf("vm: app %d vpn %#x maps frame %#x beyond group %d bump cursor %d", app, vpn, pa, g, len(m.frames[g]))
			}
			rec := &m.frames[g][fr]
			if rec.mark == mapped {
				return fmt.Errorf("vm: frame %#x mapped by both app%d/%#x and app%d/%#x", pa, rec.app, rec.vpn, app, vpn)
			}
			rec.mark = mapped
			if int(rec.app) != app || rec.vpn != vpn {
				return fmt.Errorf("vm: frame %#x owner record app%d/%#x, want app%d/%#x", pa, rec.app, rec.vpn, app, vpn)
			}
			count[g]++
		}
		for g, n := range sp.groupN {
			if n != count[g] {
				return fmt.Errorf("vm: app %d group %d index holds %d pages, page table %d", app, g, n, count[g])
			}
		}
		if pages != sp.pages || migrating != sp.migrating || pending != sp.pending {
			return fmt.Errorf("vm: app %d counts pages/migrating/pending %d/%d/%d, page table %d/%d/%d",
				app, sp.pages, sp.migrating, sp.pending, pages, migrating, pending)
		}
	}
	free := m.nextMark()
	for g, list := range m.recycled {
		cursor := uint64(len(m.frames[g]))
		if m.deadGroup[g] && len(list) != 0 {
			return fmt.Errorf("vm: dead group %d has %d recycled frames", g, len(list))
		}
		if uint64(len(list)) > cursor {
			return fmt.Errorf("vm: group %d free list (%d) exceeds frames ever allocated (%d)", g, len(list), cursor)
		}
		for _, f := range list {
			if f >= cursor {
				return fmt.Errorf("vm: group %d recycled frame %d beyond bump cursor %d", g, f, cursor)
			}
			rec := &m.frames[g][f]
			if rec.mark == free {
				return fmt.Errorf("vm: group %d frame %d recycled twice", g, f)
			}
			rec.mark = free
			if rec.app >= 0 {
				return fmt.Errorf("vm: group %d frame %d on free list but owned by app%d/%#x", g, f, rec.app, rec.vpn)
			}
		}
	}
	return nil
}
