package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestProfileAttributionOfRealProfile(t *testing.T) {
	w, err := workloadByName("pair-static")
	if err != nil {
		t.Fatal(err)
	}
	// Traced units profile their run phase; gather enough samples that
	// every busy layer shows, however fast the host or build.
	p := &profile{}
	for start := time.Now(); p.total() < 100 && time.Since(start) < time.Minute; {
		s, err := runUnit(w, 1, "smoke", true)
		if err != nil {
			t.Fatal(err)
		}
		q, err := decodeProfile(s.Profile)
		if err != nil {
			t.Fatal(err)
		}
		p.merge(q)
	}
	shares := p.shares()
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	for _, l := range []string{"gpu", "sm", "dram"} {
		if shares[l] <= 0 {
			t.Errorf("%s share is %g over %d samples, want > 0", l, shares[l], p.total())
		}
	}
	for l := range shares {
		if l != runtimeLayer && !slices.Contains(shareLayers, l) {
			t.Errorf("layer %q has samples but no %s.cpu_share metric", l, l)
		}
	}
}

func TestRuntimeCallsChargeTheCallingLayer(t *testing.T) {
	p := &profile{
		stacks: [][]string{
			{"runtime.mapaccess2_fast64", "ugpu/internal/vm.(*Manager).Translate", "ugpu/internal/gpu.(*GPU).tick", "runtime.goexit"},
			{"runtime.gcBgMarkWorker", "runtime.goexit"},
			{"ugpu/internal/cluster/serve.(*Frontend).boundary", "ugpu/internal/parallel.Map[go.shape.struct { ugpu/internal/core.x int }]"},
		},
		weights: []int64{2, 1, 1},
	}
	want := map[string]float64{"vm": 0.5, runtimeLayer: 0.25, "clusterserve": 0.25}
	got := p.shares()
	if len(got) != len(want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	for l, s := range want {
		if got[l] != s {
			t.Errorf("%s share %g, want %g", l, got[l], s)
		}
	}
	if c := p.cumulative("ugpu/internal/gpu.(*GPU).tick"); c != 0.5 {
		t.Errorf("cumulative share under tick %g, want 0.5", c)
	}
	if l := layerOf("ugpu/internal/parallel.Map[go.shape.struct { ugpu/internal/core.x int }]"); l != "parallel" {
		t.Errorf("generic function charged to %q, want parallel", l)
	}
}
