package main

// metricDef names a reported metric. BENCHMARK.json lists the same names
// and units; a test keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd is what a user of the façade sees, measured with tracing off on
// the workload's façade (NewBounded for bounded, New otherwise).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_mops", "Mops/s", "higher"},
	{"op_p50_ns", "ns", "lower"},
	{"handoff_p50_us", "us", "lower"},
}

// perLayer comes from the traced run, one phase per rung.
var perLayer = []metricDef{
	{"noop.op_ns", "ns", "lower"},
	{"faabench.enq_ns", "ns", "lower"},
	{"faabench.deq_ns", "ns", "lower"},
	{"faabench.mops", "Mops/s", "higher"},
	{"core.enq_ns", "ns", "lower"},
	{"core.deq_ns", "ns", "lower"},
	{"core.mops", "Mops/s", "higher"},
	{"core.faa_ratio", "x", "lower"},
	{"core.fast_cas_fail_per_op", "count/op", "lower"},
	{"core.slow_enq_frac", "ratio", "lower"},
	{"core.slow_deq_frac", "ratio", "lower"},
	{"core.empty_deq_frac", "ratio", "lower"},
	{"core.help_per_kop", "count/kop", "lower"},
	{"core.spin_fallback_per_kop", "count/kop", "lower"},
	{"core.seg_alloc_per_kop", "count/kop", "lower"},
	{"core.cleanup_per_kop", "count/kop", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"wfqueue.enq_ns", "ns", "lower"},
	{"wfqueue.deq_ns", "ns", "lower"},
	{"wfqueue.self_ns", "ns", "lower"},
	{"wfqueue.mops", "Mops/s", "higher"},
	{"wfqueue.allocs_per_op", "allocs/op", "lower"},
	{"wfqueue.bytes_per_op", "B/op", "lower"},
	{"wfqueue.retained_mb", "MB", "lower"},
	{"wfqueue.op_p99_ns", "ns", "lower"},
	{"wfqueue.handoff_p99_us", "us", "lower"},
	{"scq.enq_ns", "ns", "lower"},
	{"scq.deq_ns", "ns", "lower"},
	{"scq.mops", "Mops/s", "higher"},
	{"scq.full_frac", "ratio", "lower"},
	{"scq.slow_deq_frac", "ratio", "lower"},
	{"scq.help_donated_per_kop", "count/kop", "lower"},
	{"wfqueue.bounded.enq_ns", "ns", "lower"},
	{"wfqueue.bounded.deq_ns", "ns", "lower"},
	{"wfqueue.bounded.self_ns", "ns", "lower"},
	{"wfqueue.bounded.mops", "Mops/s", "higher"},
	{"wfqueue.bounded.bytes_per_op", "B/op", "lower"},
	{"coalesce.enq_ns", "ns", "lower"},
	{"coalesce.deq_ns", "ns", "lower"},
	{"coalesce.flush_per_kop", "count/kop", "lower"},
	{"coalesce.vals_per_flush", "count", "higher"},
	{"sharded.enq_ns", "ns", "lower"},
	{"sharded.deq_ns", "ns", "lower"},
	{"sharded.steal_per_kop", "count/kop", "lower"},
	{"sharded.empty_deq_frac", "ratio", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50(xs []sample) float64 { return ivP50(xs) }

// opP50 is the mean of the Enqueue and the Dequeue median call times. Each
// kind's median sits inside its own distribution; the median of the two
// mixed sits between them, where few samples fall, and moved twice as much
// from run to run on pairs.
func (r *phaseResult) opP50() float64 { return (p50(r.latEnq) + p50(r.latDeq)) / 2 }

func p99(xs []sample) float64 {
	ns := nsOf(xs)
	sortInts(ns)
	return quantile(ns, 0.99)
}

// delta is a layer counter's growth over the timed window.
func (r *phaseResult) delta(name string) float64 { return float64(r.c1[name] - r.c0[name]) }

func (r *phaseResult) perKop(names ...string) float64 {
	var n float64
	for _, name := range names {
		n += r.delta(name)
	}
	return div(n, float64(r.calls)) * 1000
}

func endToEndValues(r *phaseResult) map[string]float64 {
	return map[string]float64{
		"setup_s":         median(append([]float64(nil), r.setups...)),
		"throughput_mops": r.mops(),
		"op_p50_ns":       r.opP50(),
		"handoff_p50_us":  p50(r.soj) / 1e3,
	}
}

// perLayerValues derives the per-layer metrics from the traced phases
// (keyed by rung name), the workload's traced façade phase and its
// untraced twin.
func perLayerValues(ph map[string]*phaseResult, face, untraced *phaseResult) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{"faabench", "core", "coalesce", "sharded", "scq", "wfqueue", "wfqueue.bounded"} {
		r := ph[name]
		m[name+".enq_ns"] = p50(r.latEnq)
		m[name+".deq_ns"] = p50(r.latDeq)
		m[name+".mops"] = r.mops()
	}
	m["noop.op_ns"] = ph["noop"].opP50()

	c := ph["core"]
	deqs := c.delta("deq_fast") + c.delta("deq_slow") + c.delta("deq_empty")
	m["core.faa_ratio"] = div(m["faabench.mops"], m["core.mops"])
	m["core.fast_cas_fail_per_op"] = div(c.delta("fast_cas_fails"), float64(c.calls))
	m["core.slow_enq_frac"] = div(c.delta("enq_slow"), c.delta("enq_fast")+c.delta("enq_slow"))
	m["core.slow_deq_frac"] = div(c.delta("deq_slow"), deqs)
	m["core.empty_deq_frac"] = div(c.delta("deq_empty"), deqs)
	m["core.help_per_kop"] = c.perKop("help_enq", "help_deq")
	m["core.spin_fallback_per_kop"] = c.perKop("spin_fallbacks")
	m["core.seg_alloc_per_kop"] = c.perKop("segments")
	m["core.cleanup_per_kop"] = c.perKop("cleanups")

	m["runtime.gc_cycles"] = float64(face.gcCycles)
	m["runtime.gc_cpu_frac"] = face.gcCPUFrac

	w, b := ph["wfqueue"], ph["wfqueue.bounded"]
	m["wfqueue.self_ns"] = w.opP50() - c.opP50()
	m["wfqueue.allocs_per_op"] = div(float64(w.allocs), float64(w.done))
	m["wfqueue.bytes_per_op"] = div(float64(w.bytes), float64(w.done))
	m["wfqueue.retained_mb"] = face.retained / 1e6
	m["wfqueue.op_p99_ns"] = p99(face.latAll())
	m["wfqueue.handoff_p99_us"] = p99(face.soj) / 1e3

	s := ph["scq"]
	m["scq.full_frac"] = div(s.delta("enq_full"), s.delta("enq")+s.delta("enq_full"))
	m["scq.slow_deq_frac"] = div(s.delta("deq_slow"), s.delta("deq_fast")+s.delta("deq_slow")+s.delta("deq_empty"))
	m["scq.help_donated_per_kop"] = s.perKop("help_donated")
	m["wfqueue.bounded.self_ns"] = b.opP50() - s.opP50()
	m["wfqueue.bounded.bytes_per_op"] = div(float64(b.bytes), float64(b.done))

	co := ph["coalesce"]
	m["coalesce.flush_per_kop"] = co.perKop("flushes")
	m["coalesce.vals_per_flush"] = div(co.delta("flushed_vals"), co.delta("flushes"))

	sh := ph["sharded"]
	m["sharded.steal_per_kop"] = sh.perKop("steals")
	m["sharded.empty_deq_frac"] = div(sh.delta("empty_dequeues"), sh.delta("dequeues")+sh.delta("empty_dequeues"))

	m["loadgen.late_p99_us"] = p99(face.late) / 1e3
	m["trace.overhead_frac"] = 1 - div(face.mops(), untraced.mops())
	return m
}
