package workload

import (
	"reflect"
	"testing"
)

func TestArrivalSpecValidate(t *testing.T) {
	good := ArrivalSpec{Horizon: 1000, MeanGap: 100, MinLen: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []ArrivalSpec{
		{Horizon: 0, MeanGap: 100, MinLen: 10},
		{Horizon: 1000, MeanGap: 0, MinLen: 10},
		{Horizon: 1000, MeanGap: 100, MinLen: 0},
		{Horizon: 1000, MeanGap: 100, MinLen: 10, LCFraction: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if _, err := (ArrivalSpec{}).Generate(1); err == nil {
		t.Error("Generate accepted the zero spec")
	}
}

// TestGenerateSeedingContract: equal seeds give equal schedules, different
// seeds differ.
func TestGenerateSeedingContract(t *testing.T) {
	spec := ArrivalSpec{
		Horizon: 200_000, MeanGap: 5_000, LCFraction: 0.5,
		MinLen: 10_000, MaxLen: 40_000,
	}
	a, err := spec.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.Generate(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different schedules")
	}
	d, _ := spec.Generate(8)
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateShape(t *testing.T) {
	spec := ArrivalSpec{
		Horizon: 500_000, MeanGap: 2_000, LCFraction: 0.6,
		MinLen: 10_000, MaxLen: 30_000,
	}
	jobs, err := spec.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 100 {
		t.Fatalf("only %d arrivals over 250 expected gaps", len(jobs))
	}
	lc := 0
	last := 0
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if j.Arrival < last || j.Arrival > spec.Horizon {
			t.Fatalf("job %d arrival %d out of order or past horizon", i, j.Arrival)
		}
		last = j.Arrival
		if j.AloneCycles < spec.MinLen || j.AloneCycles > spec.MaxLen {
			t.Fatalf("job %d length %d outside [%d,%d]", i, j.AloneCycles, spec.MinLen, spec.MaxLen)
		}
		if j.Class == LatencyCritical {
			lc++
		}
		if j.Bench.Abbr == "" {
			t.Fatalf("job %d has no benchmark", i)
		}
	}
	frac := float64(lc) / float64(len(jobs))
	if frac < 0.45 || frac > 0.75 {
		t.Errorf("LC fraction = %.2f, want near 0.6", frac)
	}
}

func TestGenerateBurst(t *testing.T) {
	spec := ArrivalSpec{
		Horizon: 100_000, MeanGap: 10_000, Burst: 4, MinLen: 1_000,
	}
	jobs, err := spec.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs)%4 != 0 {
		t.Fatalf("%d jobs not a multiple of the burst size 4", len(jobs))
	}
	for i := 0; i < len(jobs); i += 4 {
		for k := 1; k < 4; k++ {
			if jobs[i+k].Arrival != jobs[i].Arrival {
				t.Fatalf("burst member %d arrives at %d, head at %d", i+k, jobs[i+k].Arrival, jobs[i].Arrival)
			}
		}
	}
}

func TestTraceOrdering(t *testing.T) {
	b := Table2()[0]
	jobs := Trace([]TraceEntry{
		{Arrival: 500, Bench: b, Class: BestEffort, AloneCycles: 10},
		{Arrival: 100, Bench: b, Class: LatencyCritical, AloneCycles: 20},
		{Arrival: 500, Bench: b, Class: LatencyCritical, AloneCycles: 30},
	})
	if jobs[0].Arrival != 100 || jobs[0].AloneCycles != 20 {
		t.Fatalf("first job = %+v, want the cycle-100 arrival", jobs[0])
	}
	// Equal arrivals keep input order (stable).
	if jobs[1].AloneCycles != 10 || jobs[2].AloneCycles != 30 {
		t.Fatalf("tie order broken: %+v %+v", jobs[1], jobs[2])
	}
	for i, j := range jobs {
		if j.ID != i {
			t.Fatalf("job %d has ID %d after sorting", i, j.ID)
		}
	}
}

func TestQoSString(t *testing.T) {
	if LatencyCritical.String() != "LC" || BestEffort.String() != "BE" {
		t.Fatal("QoS strings wrong")
	}
}
