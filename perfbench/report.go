package main

// layerMetrics lists every per-layer metric with its unit, in output
// order. A metric whose layer a workload does not reach reads 0 there
// (for example router.* on explore).
var layerMetrics = []struct{ name, unit string }{
	{"server.transport_us.p50", "us"},
	{"server.handler_us.p50", "us"},
	{"server.self_us.p50", "us"},
	{"server.encode_us.p50", "us"},
	{"server.resp_kb.p50", "KB"},
	{"server.ingest_self_ms.p50", "ms"},
	{"server.sse_self_ms.p50", "ms"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions_per_kreq", "count/kreq"},
	{"facade.rollup_us.p50", "us"},
	{"facade.rollup_us.p99", "us"},
	{"facade.drilldown_us.p50", "us"},
	{"facade.drilldown_us.p99", "us"},
	{"facade.self_us.p50", "us"},
	{"facade.allocs_per_query", "count"},
	{"core.rollup_us.p50", "us"},
	{"core.rollup_us.p99", "us"},
	{"core.drilldown_us.p50", "us"},
	{"core.drilldown_us.p99", "us"},
	{"core.cdr_hit_ratio", "ratio"},
	{"core.match_hit_ratio", "ratio"},
	{"core.ingest_commit_ms.p50", "ms"},
	{"core.ingest_commit_ms.p90", "ms"},
	{"core.durable_wait_ms.p50", "ms"},
	{"core.durable_wait_ms.p90", "ms"},
	{"core.merges", "count"},
	{"persist.bytes_per_doc", "B"},
	{"persist.checkpoints_per_batch", "ratio"},
	{"persist.checkpoint_errors", "count"},
	{"watch.delivery_ms.p50", "ms"},
	{"watch.alerts_fired", "count"},
	{"watch.alerts_dropped", "count"},
	{"router.shard_rtt_us.p50", "us"},
	{"router.shard_rtt_us.p99", "us"},
	{"router.self_us.p50", "us"},
	{"router.shard_hit_ratio", "ratio"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.alloc_kb_per_op", "KB"},
	{"proc.gc_per_kop", "count/kop"},
	{"query_p90_us", "us"},
	{"query_p99_us", "us"},
	{"query_due_p50_us", "us"},
	{"query_due_p99_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_sends", "count"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p90_ms", "ms"},
	{"alert_p50_ms", "ms"},
	{"alert_p90_ms", "ms"},
	{"trace.overhead_query_p50_us", "us"},
	{"trace.query_self_sum_ratio", "ratio"},
	{"trace.ingest_self_sum_ratio", "ratio"},
	{"trace.alert_self_sum_ratio", "ratio"},
	{"trace.samples", "count"},
	{"trace.dropped", "count"},
	{"workload.hit_share", "ratio"},
	{"workload.zero_result_share", "ratio"},
	{"workload.rollup_fill_p50", "ratio"},
	{"workload.distinct_keys_per_capacity", "ratio"},
	{"workload.time_range_share", "ratio"},
	{"workload.group_by_share", "ratio"},
}

// perLayer assembles the per-layer metrics: medians and tails of the
// traced pass's spans, counters and resource use from the untraced
// pass, the tracing overhead between the two, and the workload
// properties.
func perLayer(plain, traced *passOut, tr *tracer, r *result) map[string]metric {
	lt := tr.derive()
	v := map[string]float64{}
	cp := func(xs []float64) []float64 { return append([]float64(nil), xs...) }
	med := func(xs []float64) float64 { return median(cp(xs)) }
	q := func(xs []float64, p float64) float64 { return quantile(cp(xs), p) }

	v["server.transport_us.p50"] = med(lt.self["query"])
	v["server.handler_us.p50"] = med(lt.dur["server.handler"])
	v["server.self_us.p50"] = med(lt.self["server.handler"])
	v["server.encode_us.p50"] = med(lt.dur["server.encode"])
	v["server.resp_kb.p50"] = med(tr.vals["server.resp_kb"])
	v["server.ingest_self_ms.p50"] = med(lt.self["ingest.http"]) / 1e3
	v["server.sse_self_ms.p50"] = med(lt.dur["server.sse"]) / 1e3
	for _, op := range []string{"rollup", "drilldown"} {
		v["facade."+op+"_us.p50"] = med(lt.dur["facade."+op])
		v["facade."+op+"_us.p99"] = q(lt.dur["facade."+op], 0.99)
		v["core."+op+"_us.p50"] = med(lt.dur["core."+op])
		v["core."+op+"_us.p99"] = q(lt.dur["core."+op], 0.99)
	}
	v["facade.self_us.p50"] = med(append(cp(lt.self["facade.rollup"]), lt.self["facade.drilldown"]...))
	v["core.ingest_commit_ms.p50"] = med(lt.dur["core.ingest_commit"]) / 1e3
	v["core.ingest_commit_ms.p90"] = q(lt.dur["core.ingest_commit"], 0.90) / 1e3
	v["core.durable_wait_ms.p50"] = med(lt.dur["core.durable_wait"]) / 1e3
	v["core.durable_wait_ms.p90"] = q(lt.dur["core.durable_wait"], 0.90) / 1e3
	v["watch.delivery_ms.p50"] = med(lt.dur["watch.delivery"]) / 1e3
	v["router.shard_rtt_us.p50"] = med(lt.dur["router.shards"])
	v["router.shard_rtt_us.p99"] = q(lt.dur["router.shards"], 0.99)
	v["router.self_us.p50"] = med(lt.self["router.handler"])

	ops := float64(max(plain.ops, 1))
	v["proc.cpu_us_per_op"] = us(plain.proc.cpu) / ops
	v["proc.alloc_kb_per_op"] = float64(plain.proc.allocB) / 1024 / ops
	v["proc.gc_per_kop"] = float64(plain.proc.gcs) * 1000 / ops
	v["query_p90_us"] = sliceQuantile(plain.query, plain.window, 0.90)
	v["query_p99_us"] = sliceQuantile(plain.query, plain.window, 0.99)
	v["query_due_p50_us"] = sliceQuantile(plain.queryDue, plain.window, 0.5)
	v["query_due_p99_us"] = sliceQuantile(plain.queryDue, plain.window, 0.99)
	v["loadgen.late_p99_ms"] = q(plain.late, 0.99)
	v["loadgen.late_sends"] = float64(plain.lateSends)
	v["ingest_ack_p50_ms"] = q(plain.ack, 0.50)
	v["ingest_ack_p90_ms"] = q(plain.ack, 0.90)
	v["alert_p50_ms"] = q(plain.alert, 0.50)
	v["alert_p90_ms"] = q(plain.alert, 0.90)

	v["trace.overhead_query_p50_us"] = sliceQuantile(traced.query, traced.window, 0.5) -
		sliceQuantile(plain.query, plain.window, 0.5)
	v["trace.query_self_sum_ratio"] = lt.selfSumRatio("query")
	v["trace.ingest_self_sum_ratio"] = lt.selfSumRatio("ingest")
	v["trace.alert_self_sum_ratio"] = lt.selfSumRatio("alert")
	v["trace.samples"] = float64(tr.reqs)
	v["trace.dropped"] = float64(tr.dropped)
	for name, x := range r.counters {
		v[name] = x
	}
	for name, x := range r.props {
		v["workload."+name] = x
	}

	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
