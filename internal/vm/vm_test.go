package vm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ugpu/internal/addr"
	"ugpu/internal/config"
)

func newManager(t *testing.T, apps int) (*Manager, *addr.CustomMapper, config.Config) {
	t.Helper()
	cfg := config.Default()
	m := addr.NewCustomMapper(cfg)
	return NewManager(cfg, m, apps), m, cfg
}

func TestFaultMapsPageInAllowedGroup(t *testing.T) {
	mgr, mapper, _ := newManager(t, 2)
	mgr.SetGroups(0, []int{0, 1, 2, 3})
	mgr.SetGroups(1, []int{4, 5, 6, 7})

	pa := mgr.HandleFault(0, 0)
	if g := mapper.ChannelGroup(pa); g > 3 {
		t.Errorf("app 0 page allocated in group %d, want 0-3", g)
	}
	pb := mgr.HandleFault(1, 0)
	if g := mapper.ChannelGroup(pb); g < 4 {
		t.Errorf("app 1 page allocated in group %d, want 4-7", g)
	}
	if pa == pb {
		t.Error("two apps share a frame")
	}
	if got, ok := mgr.Translate(0, 0); !ok || got != pa {
		t.Errorf("Translate(0,0) = (%#x, %v), want (%#x, true)", got, ok, pa)
	}
	if _, ok := mgr.Translate(0, 99); ok {
		t.Error("unmapped page translated")
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllocationBalancesAcrossGroups(t *testing.T) {
	mgr, _, _ := newManager(t, 1)
	mgr.SetGroups(0, []int{0, 1, 2, 3})
	for vpn := uint64(0); vpn < 400; vpn++ {
		mgr.HandleFault(0, vpn)
	}
	load := mgr.GroupLoad(0)
	for g := 0; g < 4; g++ {
		if load[g] != 100 {
			t.Errorf("group %d holds %d pages, want 100", g, load[g])
		}
	}
	for g := 4; g < 8; g++ {
		if load[g] != 0 {
			t.Errorf("disallowed group %d holds %d pages", g, load[g])
		}
	}
}

func TestDoubleFaultPanics(t *testing.T) {
	mgr, _, _ := newManager(t, 1)
	mgr.SetGroups(0, []int{0})
	mgr.HandleFault(0, 7)
	defer func() {
		if recover() == nil {
			t.Error("double fault did not panic")
		}
	}()
	mgr.HandleFault(0, 7)
}

func TestContentTagsVerifyReads(t *testing.T) {
	mgr, _, _ := newManager(t, 2)
	mgr.SetGroups(0, []int{0, 1})
	mgr.SetGroups(1, []int{2, 3})
	for vpn := uint64(0); vpn < 50; vpn++ {
		mgr.HandleFault(0, vpn)
		mgr.HandleFault(1, vpn)
	}
	for vpn := uint64(0); vpn < 50; vpn++ {
		if err := mgr.CheckRead(0, vpn); err != nil {
			t.Fatal(err)
		}
		if err := mgr.CheckRead(1, vpn); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.CheckRead(0, 1000); err == nil {
		t.Error("CheckRead on unmapped page succeeded")
	}
}

func TestMigrationMovesPageAndPreservesTag(t *testing.T) {
	mgr, mapper, cfg := newManager(t, 1)
	mgr.SetGroups(0, []int{0})
	pa := mgr.HandleFault(0, 42)

	// Reallocate to group 5; the page is now outside.
	mgr.SetGroups(0, []int{5})
	if mgr.InAllowedGroup(0, pa) {
		t.Fatal("old frame still counted as allowed")
	}
	out := mgr.PagesOutside(0, 0)
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("PagesOutside = %v, want [42]", out)
	}

	mig := mgr.PlanMigration(0, 42, -1)
	if mig == nil {
		t.Fatal("PlanMigration returned nil")
	}
	if g := mapper.ChannelGroup(mig.DstPA); g != 5 {
		t.Errorf("migration destination group = %d, want 5", g)
	}
	if len(mig.Src) != cfg.LinesPerPage() || len(mig.Dst) != cfg.LinesPerPage() {
		t.Errorf("plan has %d/%d lines, want %d", len(mig.Src), len(mig.Dst), cfg.LinesPerPage())
	}
	// Same-stack pairing line by line (PPMM-compatible).
	for i := range mig.Src {
		if mig.Src[i].Stack != mig.Dst[i].Stack {
			t.Fatalf("line %d crosses stacks: %v -> %v", i, mig.Src[i], mig.Dst[i])
		}
	}

	// A second plan for the same page while in flight must be refused.
	if dup := mgr.PlanMigration(0, 42, -1); dup != nil {
		t.Error("concurrent migration planned for same page")
	}

	mig.Commit()
	if err := mgr.CheckRead(0, 42); err != nil {
		t.Fatal(err)
	}
	newPA, _ := mgr.Translate(0, 42)
	if !mgr.InAllowedGroup(0, newPA) {
		t.Error("migrated page not in allowed group")
	}
	if len(mgr.PagesOutside(0, 0)) != 0 {
		t.Error("pages still outside after migration")
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if mgr.Stats().Migrations != 1 {
		t.Errorf("migrations = %d, want 1", mgr.Stats().Migrations)
	}
}

func TestMigrationAbortRecyclesFrame(t *testing.T) {
	mgr, _, _ := newManager(t, 1)
	mgr.SetGroups(0, []int{0, 1})
	mgr.HandleFault(0, 1)
	mig := mgr.PlanMigration(0, 1, 1)
	if mig == nil {
		t.Fatal("no plan")
	}
	before := len(mgr.frames[1])
	mig.Abort()
	// The reserved frame must be reused by the next allocation in group 1.
	mig2 := mgr.PlanMigration(0, 1, 1)
	if mig2 == nil {
		t.Fatal("no second plan")
	}
	if mig2.DstPA != mig.DstPA {
		t.Errorf("aborted frame not recycled: %#x vs %#x", mig2.DstPA, mig.DstPA)
	}
	if len(mgr.frames[1]) != before {
		t.Error("abort leaked a fresh frame")
	}
	mig2.Commit()
	if err := mgr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFrameRecyclingReusesFreedFrames(t *testing.T) {
	mgr, mapper, _ := newManager(t, 1)
	mgr.SetGroups(0, []int{0, 1})
	pa := mgr.HandleFault(0, 1)
	srcGroup := mapper.ChannelGroup(pa)
	mig := mgr.PlanMigration(0, 1, 1-srcGroup)
	mig.Commit()
	// The freed source frame should back the next fault in that group.
	mgr.SetGroups(0, []int{srcGroup})
	pb := mgr.HandleFault(0, 2)
	if pb != pa {
		t.Errorf("freed frame %#x not reused; got %#x", pa, pb)
	}
}

func TestImbalancePagesAfterGainingGroups(t *testing.T) {
	mgr, _, _ := newManager(t, 1)
	mgr.SetGroups(0, []int{0, 1})
	for vpn := uint64(0); vpn < 100; vpn++ {
		mgr.HandleFault(0, vpn)
	}
	// Gain two more groups: half the pages should want to move.
	mgr.SetGroups(0, []int{0, 1, 2, 3})
	moves := mgr.ImbalancePages(0, 0)
	if len(moves) < 30 || len(moves) > 60 {
		t.Errorf("ImbalancePages proposes %d moves, want roughly half of 100", len(moves))
	}
	for _, vpn := range moves {
		mig := mgr.PlanMigration(0, vpn, -1)
		if mig == nil {
			t.Fatalf("no plan for vpn %#x", vpn)
		}
		mig.Commit()
	}
	load := mgr.GroupLoad(0)
	for g := 0; g < 4; g++ {
		if load[g] < 15 || load[g] > 35 {
			t.Errorf("group %d holds %d pages after rebalance, want ~25", g, load[g])
		}
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRandomisedMigrationStress(t *testing.T) {
	mgr, _, _ := newManager(t, 3)
	rng := rand.New(rand.NewSource(99))
	allGroups := [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}}
	for app := 0; app < 3; app++ {
		mgr.SetGroups(app, allGroups[app])
		for vpn := uint64(0); vpn < 200; vpn++ {
			mgr.HandleFault(app, vpn)
		}
	}
	for iter := 0; iter < 50; iter++ {
		app := rng.Intn(3)
		// Random reallocation: rotate one group between apps.
		g := rng.Intn(8)
		groups := []int{g, (g + 1) % 8, (g + 3) % 8}
		mgr.SetGroups(app, groups)
		for _, vpn := range mgr.PagesOutside(app, 20) {
			if mig := mgr.PlanMigration(app, vpn, -1); mig != nil {
				if rng.Intn(10) == 0 {
					mig.Abort()
				} else {
					mig.Commit()
				}
			}
		}
		if err := mgr.CheckInvariants(); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
	}
	for app := 0; app < 3; app++ {
		for vpn := uint64(0); vpn < 200; vpn++ {
			if err := mgr.CheckRead(app, vpn); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestQuickMigrationInvariants(t *testing.T) {
	// Property: any sequence of (fault, reallocate, migrate, abort)
	// operations preserves frame-ownership invariants and content tags.
	f := func(seed int64) bool {
		mgr, _, _ := func() (*Manager, *addr.CustomMapper, config.Config) {
			cfg := config.Default()
			m := addr.NewCustomMapper(cfg)
			return NewManager(cfg, m, 2), m, cfg
		}()
		rng := rand.New(rand.NewSource(seed))
		mgr.SetGroups(0, []int{0, 1, 2, 3})
		mgr.SetGroups(1, []int{4, 5, 6, 7})
		mapped := [2]uint64{}
		for i := 0; i < 300; i++ {
			app := rng.Intn(2)
			switch rng.Intn(5) {
			case 0, 1: // fault a new page
				mgr.HandleFault(app, mapped[app])
				mapped[app]++
			case 2: // reallocate groups
				g := rng.Intn(8)
				mgr.SetGroups(app, []int{g, (g + 2) % 8})
			case 3: // migrate an outside page
				for _, vpn := range mgr.PagesOutside(app, 1) {
					if mig := mgr.PlanMigration(app, vpn, -1); mig != nil {
						mig.Commit()
					}
				}
			case 4: // plan then abort
				if mapped[app] > 0 {
					vpn := uint64(rng.Int63n(int64(mapped[app])))
					if mig := mgr.PlanMigration(app, vpn, -1); mig != nil {
						mig.Abort()
					}
				}
			}
		}
		if err := mgr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		for app := 0; app < 2; app++ {
			for vpn := uint64(0); vpn < mapped[app]; vpn++ {
				if err := mgr.CheckRead(app, vpn); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// populated returns a manager with two tenants of 64 pages each and one
// committed migration, so group srcGroup's free list holds a frame.
func populated(t *testing.T) (mgr *Manager, mapper *addr.CustomMapper, srcGroup int) {
	t.Helper()
	mgr, mapper, _ = newManager(t, 2)
	mgr.SetGroups(0, []int{0, 1, 2, 3})
	mgr.SetGroups(1, []int{4, 5, 6, 7})
	for vpn := uint64(0); vpn < 64; vpn++ {
		mgr.HandleFault(0, vpn)
		mgr.HandleFault(1, vpn)
	}
	pa, _ := mgr.Translate(0, 0)
	srcGroup = mapper.ChannelGroup(pa)
	mgr.PlanMigration(0, 0, (srcGroup+1)%4).Commit()
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return mgr, mapper, srcGroup
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *Manager, mapper *addr.CustomMapper, g int)
		want    string
	}{
		{"frame mapped by two spaces", func(m *Manager, _ *addr.CustomMapper, _ int) {
			m.spaces[1].pt[5] = m.spaces[0].pt[3]
		}, "mapped by both"},
		{"owner record disagrees with page table", func(m *Manager, _ *addr.CustomMapper, _ int) {
			pa, _ := m.Translate(1, 9)
			m.frame(pa).vpn++
		}, "owner record"},
		{"per-group count drifts", func(m *Manager, _ *addr.CustomMapper, _ int) {
			m.spaces[0].groupN[0]++
			m.spaces[0].groupN[1]--
		}, "index holds"},
		{"frame on free list twice", func(m *Manager, _ *addr.CustomMapper, g int) {
			m.recycled[g] = append(m.recycled[g], m.recycled[g][0])
		}, "recycled twice"},
		{"owned frame on free list", func(m *Manager, mapper *addr.CustomMapper, _ int) {
			pa, _ := m.Translate(0, 7)
			g, f := mapper.FrameOf(pa)
			m.recycled[g] = append(m.recycled[g], f)
		}, "on free list but owned"},
		{"recycled frame beyond bump cursor", func(m *Manager, _ *addr.CustomMapper, g int) {
			m.recycled[g] = append(m.recycled[g], uint64(len(m.frames[g])))
		}, "beyond bump cursor"},
		{"dead group with recycled frames", func(m *Manager, _ *addr.CustomMapper, g int) {
			m.deadGroup[g] = true
		}, "dead group"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgr, mapper, g := populated(t)
			tc.corrupt(mgr, mapper, g)
			err := mgr.CheckInvariants()
			if err == nil {
				t.Fatal("CheckInvariants accepted corrupted bookkeeping")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckInvariants = %q, want an error mentioning %q", err, tc.want)
			}
		})
	}

	t.Run("content tag", func(t *testing.T) {
		mgr, _, _ := populated(t)
		pa, _ := mgr.Translate(1, 11)
		mgr.frame(pa).tag ^= 1
		if err := mgr.CheckRead(1, 11); err == nil {
			t.Error("CheckRead accepted a corrupted content tag")
		}
		if err := mgr.CheckRead(1, 12); err != nil {
			t.Errorf("CheckRead of an intact neighbour: %v", err)
		}
	})
}

func TestScansListAscendingVPN(t *testing.T) {
	mgr, _, _ := newManager(t, 1)
	mgr.SetGroups(0, []int{0, 1})
	for vpn := uint64(0); vpn < 100; vpn++ {
		mgr.HandleFault(0, vpn)
	}
	ascending := func(name string, vpns []uint64, want int) {
		t.Helper()
		if len(vpns) != want {
			t.Errorf("%s listed %d pages, want %d", name, len(vpns), want)
		}
		for i := 1; i < len(vpns); i++ {
			if vpns[i] <= vpns[i-1] {
				t.Fatalf("%s not ascending: %v", name, vpns)
			}
		}
	}
	// Nothing stranded, pending or over-loaded: every scan is empty.
	if n := len(mgr.PagesToMigrate(0, 0)) + len(mgr.ImbalancePages(0, 0)); n != 0 {
		t.Errorf("balanced space lists %d pages to move", n)
	}
	ascending("PagesOnGroup", mgr.PagesOnGroup(0, 1), 50)

	mgr.SetGroups(0, []int{1, 2, 3})
	ascending("PagesOutside", mgr.PagesOutside(0, 0), 50)
	ascending("PagesOutside(limit)", mgr.PagesOutside(0, 8), 8)
	if got := mgr.PagesOutside(0, 1); got[0] != 0 {
		t.Errorf("first stranded page = %d, want 0", got[0])
	}
	ascending("ImbalancePages", mgr.ImbalancePages(0, 0), 50-100/3-1)

	mgr.SetGroups(0, []int{0, 1})
	mgr.MarkAllPending(0)
	ascending("PagesToMigrate", mgr.PagesToMigrate(0, 0), 100)
	ascending("PagesToMigrate(limit)", mgr.PagesToMigrate(0, 10), 10)
}
