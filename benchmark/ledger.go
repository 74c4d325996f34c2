package main

// The reconciliation ledger: per workload, Σ(unit cost × count) beside the
// measured body wall, with the residual. The cost model is deliberately
// crude — two or three linear terms per layer — because its job is to say
// how much of a cycle the unit drivers explain, not to predict the wall.

// ledgerRow is one term. Source is "unit" for a unit-driver cost times a
// simulated count, "span" for time the traced run measured directly.
type ledgerRow struct {
	Term       string  `json:"term"`
	Source     string  `json:"source"`
	Count      float64 `json:"count"`
	UnitCostNS float64 `json:"unit_cost_ns"`
	Seconds    float64 `json:"seconds"`
}

type ledger struct {
	Rows       []ledgerRow `json:"rows"`
	ExplainedS float64     `json:"explained_s"`
	MeasuredS  float64     `json:"measured_s"`
	ResidualS  float64     `json:"residual_s"`
	// Measured names what MeasuredS is: the unscaled untraced body wall, except on
	// mesh16_sharded where the shares come from the one-shard run.
	Measured string `json:"measured"`
}

// nsOf returns a per-layer metric's median in nanoseconds.
func nsOf(per map[string]stat, name string) float64 {
	st := per[name]
	switch st.Unit {
	case "us":
		return st.Median * 1e3
	case "ms":
		return st.Median * 1e6
	case "s":
		return st.Median * 1e9
	}
	return st.Median
}

func buildLedger(w workload, lc *layerCtx, per map[string]stat, aux unitAux, wallS float64) *ledger {
	l := &ledger{MeasuredS: wallS, Measured: "proc.wall_raw_s"}
	unit := func(term string, count float64, metric string) {
		cost := nsOf(per, metric)
		l.Rows = append(l.Rows, ledgerRow{Term: term + " x " + metric, Source: "unit",
			Count: count, UnitCostNS: cost, Seconds: count * cost / 1e9})
	}
	spanRow := func(term string, seconds float64) {
		l.Rows = append(l.Rows, ledgerRow{Term: term, Source: "span", Count: 1,
			UnitCostNS: seconds * 1e9, Seconds: seconds})
	}
	// fabric is the NoC's two-term model: every executed cycle scans the
	// whole (empty) mesh, every flit-hop adds the saturated driver's
	// marginal cost.
	fabric := func(nodes int) {
		empty := nsOf(per, "noc.tick_empty_ns") * float64(nodes) / 16
		l.Rows = append(l.Rows, ledgerRow{Term: "executed cycles x noc.tick_empty_ns (scaled to the mesh)",
			Source: "unit", Count: lc.execCycles, UnitCostNS: empty, Seconds: lc.execCycles * empty / 1e9})
		if aux.satFlitsPerTick > 0 {
			marginal := (nsOf(per, "noc.tick_saturated_ns") - nsOf(per, "noc.tick_empty_ns")) / aux.satFlitsPerTick
			flits := lc.last.counts["noc.flits_routed"]
			l.Rows = append(l.Rows, ledgerRow{Term: "flit-hops x marginal saturated-tick cost",
				Source: "unit", Count: flits, UnitCostNS: marginal, Seconds: flits * marginal / 1e9})
		}
	}
	counts := lc.last.counts
	switch w := w.(type) {
	case *paperTG:
		spanRow("ARM reference runs (cpu.ref_run_s)", per["cpu.ref_run_s"].Median)
		spanRow("trace serialisation (exp.TraceBytes)", lc.spanMedian("exp.TraceBytes"))
		spanRow("translation (core.translate_s)", per["core.translate_s"].Median)
		unit("TG platform builds", float64(lc.last.ops*w.cfg.sz.paperReplays), "platform.build_us.amba")
		unit("TG master ticks", lc.masterTicks, "core.tick_ns")
		unit("bus busy cycles of the replays", counts["amba.busy_cycles.tg"], "amba.txn_ns")
	case *libraryXPipes:
		unit("points", counts["sweep.points"], "sweep.point_overhead_us")
		unit("generator ticks", lc.masterTicks, "stochastic.tick_ns.poisson")
		fabric(12)
	case *curveAdaptive:
		unit("simulated levels", counts["sweep.curve_levels_simulated"], "sweep.point_overhead_us")
		unit("curves", float64(len(w.specs)), "analytic.compile_us")
		unit("curves", float64(len(w.specs)), "analytic.estimate_us")
	case *journalAMBA:
		unit("points", counts["sweep.points"], "sweep.point_overhead_us")
		unit("points", counts["sweep.points"], "journal.append_sync_us")
		unit("points", counts["sweep.points"], "sweep.render_us_per_point")
		unit("bus busy cycles", counts["amba.busy_cycles"], "amba.txn_ns")
	case *meshSharded:
		l.MeasuredS, l.Measured = lc.ledgerWallS, "one-shard wall of the same cycles"
		unit("generator ticks", lc.masterTicks, "stochastic.tick_ns.poisson")
		fabric(w.cfg.sz.meshW * w.cfg.sz.meshH)
	}
	for _, r := range l.Rows {
		l.ExplainedS += r.Seconds
	}
	l.ResidualS = l.MeasuredS - l.ExplainedS
	return l
}
