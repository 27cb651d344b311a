package main

import (
	"reflect"
	"testing"

	"ugpu"
)

func benches(t *testing.T, abbrs ...string) []ugpu.Benchmark {
	t.Helper()
	out := make([]ugpu.Benchmark, len(abbrs))
	for i, a := range abbrs {
		b, err := ugpu.BenchmarkByName(a)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func names(placed [][]ugpu.Benchmark) [][]string {
	out := make([][]string, len(placed))
	for gi, tenants := range placed {
		for _, b := range tenants {
			out[gi] = append(out[gi], b.Abbr)
		}
	}
	return out
}

// TestInOrderPlacementFillsContiguously: arrival-order placement fills each
// GPU before the next, so a burst of memory-bound arrivals lands on the
// same GPUs.
func TestInOrderPlacementFillsContiguously(t *testing.T) {
	js := benches(t, "PVC", "LBM", "EULER3D", "SC", "DXTC", "CP", "HOTSPOT", "MRI-Q")
	want := [][]string{{"PVC", "LBM"}, {"EULER3D", "SC"}, {"DXTC", "CP"}, {"HOTSPOT", "MRI-Q"}}
	if got := names(place(js, 4, false)); !reflect.DeepEqual(got, want) {
		t.Errorf("in-order placement = %v, want %v", got, want)
	}
}

// TestClassAwarePlacementSpreadsClasses: an arrival order that in-order
// placement packs into same-class pairs still gives every GPU one
// memory-bound and one compute-bound tenant under class-aware placement.
func TestClassAwarePlacementSpreadsClasses(t *testing.T) {
	js := benches(t, "PVC", "LBM", "DXTC", "CP")
	inOrder := place(js, 2, false)
	if inOrder[0][0].Class != inOrder[0][1].Class {
		t.Fatalf("in-order placement %v: premise of a same-class pair broken", names(inOrder))
	}
	for gi, tenants := range place(js, 2, true) {
		if len(tenants) != 2 {
			t.Fatalf("gpu %d has %d tenants", gi, len(tenants))
		}
		if tenants[0].Class == tenants[1].Class {
			t.Errorf("gpu %d hosts a homogeneous pair under class-aware placement", gi)
		}
	}
}

// TestClassAwarePlacementDeterministic: placement is a pure function of the
// job list. Repeated placements are identical, each class keeps its arrival
// order (stable sort), and the caller's list is left untouched.
func TestClassAwarePlacementDeterministic(t *testing.T) {
	js := benches(t, "DXTC", "PVC", "CP", "LBM", "BH", "SC")
	first := place(js, 3, true)
	for i := 0; i < 10; i++ {
		if again := place(js, 3, true); !reflect.DeepEqual(first, again) {
			t.Fatalf("placement %d diverged:\n%v\nvs\n%v", i, names(first), names(again))
		}
	}
	want := [][]string{{"PVC", "DXTC"}, {"LBM", "CP"}, {"SC", "BH"}}
	if got := names(first); !reflect.DeepEqual(got, want) {
		t.Errorf("class-aware placement = %v, want %v", got, want)
	}
	if js[0].Abbr != "DXTC" || js[1].Abbr != "PVC" {
		t.Error("place reordered the caller's job list")
	}
}

// TestClassAwareUGPUBeatsObliviousBP is the cluster-level claim of §6.6:
// class-aware placement plus UGPU completes more work than arrival-order
// placement plus balanced partitioning.
func TestClassAwareUGPUBeatsObliviousBP(t *testing.T) {
	cfg := ugpu.DefaultConfig()
	cfg.MaxCycles = 80_000
	cfg.EpochCycles = 20_000
	opt := ugpu.DefaultOptions()
	opt.FootprintScale = 64
	alone := ugpu.NewAloneIPC(cfg, opt)
	scaled := func(mk func() ugpu.Policy) func() ugpu.Policy {
		return func() ugpu.Policy {
			return ugpu.WithOptions(mk(), func(o *ugpu.Options) { o.FootprintScale = 64 })
		}
	}
	js := benches(t, "PVC", "LBM", "DXTC", "CP")
	clusterSTP := func(classAware bool, mk func() ugpu.Policy) float64 {
		runs, err := runCluster(cfg, place(js, 2, classAware), scaled(mk), alone)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, g := range runs {
			sum += g.stp
		}
		return sum
	}
	base := clusterSTP(false, func() ugpu.Policy { return ugpu.NewBP() })
	best := clusterSTP(true, func() ugpu.Policy { return ugpu.NewUGPU(cfg) })
	if best <= base {
		t.Errorf("class-aware UGPU cluster STP %.3f not above in-order BP %.3f", best, base)
	}
}
