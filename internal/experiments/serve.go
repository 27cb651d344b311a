package experiments

// ServeSweep is the online-serving experiment (not a paper figure): the
// serving layer (internal/serve) admits a seeded Poisson stream of LC/BE
// jobs onto one dynamically partitioned GPU and reports tail slowdown,
// rejection rate, and goodput for each admission policy as the arrival rate
// rises. The shape to reproduce: at low load every policy meets its SLOs;
// as load rises, in-order's head-of-line blocking inflates LC tail latency
// and its goodput falls behind the class-aware policies.

import (
	"fmt"

	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/serve"
	"ugpu/internal/trace"
	"ugpu/internal/workload"
)

// serveRates returns the sweep's arrival rates in jobs per 100K cycles:
// rising load by default, or the single custom rate from -arrival-rate.
func (o Options) serveRates() []float64 {
	if o.ArrivalRate > 0 {
		return []float64{o.ArrivalRate}
	}
	return []float64{4, 8, 16, 32}
}

// ServeSweep regenerates the online-serving comparison. Every (policy,
// rate) cell is one independent serve run; cells fan out over the worker
// pool and are reassembled in policy-then-rate order, so the output is
// byte-identical at any -parallel count.
func (o Options) ServeSweep() (Figure, error) {
	sv, err := o.servingSetup()
	if err != nil {
		return Figure{}, err
	}
	rates := o.serveRates()
	pols := serve.Policies()
	// An online run needs enough arrivals for percentiles to mean anything;
	// the closed-world default of 150K cycles sees only a handful. Double
	// the horizon (still scaled: -cycles scales this proportionally).
	cfg := sv.cfg
	cfg.MaxCycles *= 2
	// Arrivals stop at 2/3 of the horizon so the tail of the run drains the
	// queues; jobs still in flight at MaxCycles count as incomplete.
	sv.arrivals.Horizon = cfg.MaxCycles * 2 / 3
	// -faults serves the stream on a degraded machine; the alone reference
	// stays healthy (slowdowns are measured against an undamaged GPU).
	faults, err := o.faultSpec()
	if err != nil {
		return Figure{}, err
	}
	opt := o.gpuOptions(gpu.DefaultOptions(), faults)
	alone := o.aloneRef(cfg)

	type cellResult struct{ p99, reject, goodput float64 }
	out, links, err := runCells(o, o.Parallel, 0, len(pols)*len(rates), 1, func(i int, trs []*trace.Tracer) (cellOut[cellResult], error) {
		pol, rate := pols[i/len(rates)], rates[i%len(rates)]
		cellOpt := opt
		cellOpt.Trace = trs[0]
		arrivals := sv.arrivals
		arrivals.MeanGap = int(100_000 / rate)
		s, err := serve.New(serve.Config{
			Sim:      cfg,
			Opt:      cellOpt,
			Arrivals: arrivals,
			Seed:     sv.seed,
			Policy:   pol,
			QueueCap: 8,
			Alone:    alone,
		})
		if err != nil {
			return cellOut[cellResult]{}, fmt.Errorf("serve %s rate=%g: %w", pol, rate, err)
		}
		rep, err := s.Run()
		if err != nil {
			return cellOut[cellResult]{}, fmt.Errorf("serve %s rate=%g: %w", pol, rate, err)
		}
		spec := metrics.DefaultSLO()
		lcMet, beMet := 0, 0
		for _, oc := range rep.Outcomes {
			if !oc.Completed() {
				continue
			}
			sd := metrics.Slowdown(oc.Arrival, oc.Finish, oc.AloneCycles)
			if spec.Met(oc.Class, sd) {
				if oc.Class == workload.LatencyCritical {
					lcMet++
				} else {
					beMet++
				}
			}
		}
		return cellOut[cellResult]{
			val: cellResult{p99: rep.SLO.P99, reject: rep.SLO.RejectRate, goodput: rep.SLO.Goodput},
			line: fmt.Sprintf("  serve %-12s rate=%-4g arrived=%d done=%d rej=%d preempt=%d lcMet=%d beMet=%d p99=%.2f goodput=%.3f\n",
				pol, rate, rep.Arrived, rep.SLO.Completed, rep.Rejections, rep.Preemptions, lcMet, beMet, rep.SLO.P99, rep.SLO.Goodput),
			digs: []uint64{rep.SLO.StateDigest},
		}, nil
	})
	if err != nil {
		return Figure{}, err
	}

	labels := make([]string, len(rates))
	for i, r := range rates {
		labels[i] = fmt.Sprintf("r=%g", r)
	}
	fig := Figure{
		ID:    "serve",
		Title: "Online serving: tail slowdown, rejection, goodput vs arrival rate",
	}
	// One series per (policy, metric); cells were laid out policy-major, so
	// policy p's rates occupy out[p*len(rates) : (p+1)*len(rates)].
	for pi, p := range pols {
		row := out[pi*len(rates) : (pi+1)*len(rates)]
		fig.Series = append(fig.Series,
			series(p.String()+" p99", labels, row, func(r cellResult) float64 { return r.p99 }),
			series(p.String()+" rejectRate", labels, row, func(r cellResult) float64 { return r.reject }),
			series(p.String()+" goodput", labels, row, func(r cellResult) float64 { return r.goodput }),
		)
	}
	spec := metrics.DefaultSLO()
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("rates in jobs per 100K cycles; LC fraction %.2f; SLO: LC slowdown <= %g, BE <= %g",
			sv.qos, spec.LCSlowdown, spec.BESlowdown),
		fmt.Sprintf("arrival seed %d; identical seeds give byte-identical reports at any -parallel", sv.seed),
		"goodput = SLO-met completed alone-cycles per horizon cycle",
		"at moderate load in-order's FIFO maximises raw completions; under overload its head-of-line blocking misses every LC target and class-aware wins on both goodput and tail")
	if o.FaultSpec != "" {
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("served on a degraded machine (faults %q, seed %d); slowdowns remain relative to a healthy alone run", o.FaultSpec, o.FaultSeed))
	}
	fig.Notes = append(fig.Notes, o.digestNote(links, "all cells")...)
	return fig, nil
}
