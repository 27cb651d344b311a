package core

import (
	"reflect"
	"testing"

	"ugpu/internal/digest"
	"ugpu/internal/workload"
)

// TestScrubbedRunIsDeterministic runs the background-scrubber ablation twice
// with one seed. The scrubber picks at most ScrubBatch pages per pass, so the
// order the VM lists stranded and over-loaded pages in decides which pages
// move; that order must come from the page tables, never from hash-map
// iteration, for the two runs to agree.
func TestScrubbedRunIsDeterministic(t *testing.T) {
	lbm, err := workload.ByAbbr("LBM")
	if err != nil {
		t.Fatal(err)
	}
	dxtc, err := workload.ByAbbr("DXTC")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: "LBM_DXTC", Apps: []workload.Benchmark{lbm, dxtc}, Hetero: true}
	cfg := testCfg()
	cfg.DigestEvery = 1
	run := func() Result {
		res, err := RunPolicy(cfg, testPolicy(NewUGPUScrubbed(cfg)), mix)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.PageMigrations == 0 {
		t.Fatal("the scrubbed run migrated no pages")
	}
	if ep, diff := digest.FirstDivergence(a.Digest, b.Digest); diff {
		t.Fatalf("same-seed scrubbed runs diverge at chain entry %d (%d vs %d page migrations)",
			ep, a.PageMigrations, b.PageMigrations)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed scrubbed runs differ:\n%+v\n%+v", a, b)
	}
}
