package fault

// Whole-GPU crash planning for the cluster failover layer (ISSUE 7). A
// crash removes an entire device — every resident tenant, queue entry, and
// in-flight page — from the cluster at once; the serving frontend recovers
// from the victim's last checkpoint and re-dispatches across survivors.
//
// Crash schedules follow the same discipline as the intra-GPU plan of
// NewInjector: a private splitmix64 stream derived only from the seed,
// victims drawn distinct via seeded Fisher–Yates, events placed in the
// middle 60% of the horizon (warm-up before, observable aftermath behind),
// and a final deterministic sort. Two calls with identical arguments return
// identical schedules.

import "sort"

// Crash is one planned whole-GPU loss.
type Crash struct {
	// Cycle is the simulation cycle at which the GPU disappears.
	Cycle uint64
	// GPU is the victim's index in the cluster.
	GPU int
}

// PlanGPUCrashes builds the deterministic whole-GPU crash schedule for a
// cluster of gpus devices over a horizon of cycles.
//
// Planning rules:
//   - Victims are distinct and clamped so at least one GPU survives (a
//     cluster with zero devices cannot serve anything; the all-dead case is
//     still reachable by passing crashes >= gpus through an explicit
//     schedule, which the frontend reports as a terminal error).
//   - Crashes land in the middle 60% of the horizon (20%..80%), spread
//     evenly with seeded jitter.
//   - The returned schedule is sorted by (Cycle, GPU).
func PlanGPUCrashes(seed int64, gpus, crashes int, horizon uint64) []Crash {
	// A distinct stream constant so GPU crashes never correlate with the
	// intra-GPU schedules an injector with the same seed would plan.
	rng := splitmix64(uint64(seed)*0x94d049bb133111eb + 0x9e3779b97f4a7c15)
	var plan []Crash
	for _, w := range planWindows(rng, gpus, crashes, horizon, func(uint64) uint64 { return 0 }) {
		plan = append(plan, Crash{Cycle: w.start, GPU: w.gpu})
	}
	return plan
}

// window is one planned victim interval [start, end) on one GPU; a crash is
// a zero-length window.
type window struct {
	start, end uint64
	gpu        int
}

// planWindows is the planner behind PlanGPUCrashes and PlanGrayFaults:
// n distinct victims out of gpus, clamped so at least one GPU is spared,
// each given a window of length(horizon) cycles (clamped to the band) whose
// start is spread evenly with jitter drawn from rng across the middle 60%
// of the horizon (20%..80%, a horizon under 100 cycles counting as 100).
// The result is sorted by (start, GPU); it is nil when there is no victim.
func planWindows(rng splitmix64, gpus, n int, horizon uint64, length func(horizon uint64) uint64) []window {
	if gpus <= 0 || n <= 0 {
		return nil
	}
	if n = min(n, gpus-1); n <= 0 {
		return nil
	}
	horizon = max(horizon, 100)
	lo := horizon / 5     // 20%
	hi := horizon * 4 / 5 // 80%
	winLen := min(length(horizon), hi-lo)
	step := max((hi-winLen-lo)/uint64(n+1), 1)

	victims := pickDistinct(&rng, gpus, n)
	plan := make([]window, 0, n)
	for i, g := range victims {
		// With more victims than the band has cycles the floored step runs
		// starts past the band; the clamp keeps every window inside it
		// (a crash before hi, a gray window at least one cycle long).
		start := min(lo+uint64(i+1)*step+rng.next()%(step/2+1), hi-max(winLen, 1))
		plan = append(plan, window{start: start, end: min(start+winLen, hi), gpu: g})
	}
	sort.Slice(plan, func(a, b int) bool {
		if plan[a].start != plan[b].start {
			return plan[a].start < plan[b].start
		}
		return plan[a].gpu < plan[b].gpu
	})
	return plan
}
