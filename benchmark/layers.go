package main

import (
	"slidb/internal/profiler"
)

// endToEndMetrics turns the untraced outcome into the end-to-end table:
// medians over the timed intervals, the set-ups and the restarts.
func endToEndMetrics(o *outcome) map[string]stat {
	return map[string]stat{
		"tps":        statOf("txn/s", o.tps),
		"lat_p50_us": statOf("us", o.p50us),
		"setup_s":    statOf("s", o.setupS),
		"restart_s":  statOf("s", o.restartS),

		"lat_p99_us":        statOf("us", o.p99us),
		"failed_frac":       single("ratio", ratio(float64(o.failed), float64(o.attempted))),
		"log_bytes_per_txn": single("B", o.logBytesPerTxn),
	}
}

// layerMetrics turns a pair of outcomes into the per-layer table. Counter and
// span metrics come from the traced outcome t (Profile on, spans on);
// allocation metrics and the overhead base from the untraced outcome u run
// just before it with the same seed; probes are measured on their own.
func layerMetrics(u, t *outcome, probes map[string]float64, ramlogTmpfs bool) map[string]stat {
	m := make(map[string]stat, len(perLayer))
	put := func(name string, v float64) { m[name] = single(defByName(perLayer, name).Unit, v) }
	for name, v := range probes {
		put(name, v)
	}

	txns := float64(t.after.committed - t.before.committed)
	agentSeconds := numAgents * t.measured.Seconds()
	per := func(a, b uint64) float64 { return ratio(float64(a-b), txns) }

	lk, lk0 := t.after.lock, t.before.lock
	put("lockmgr.acquires_per_txn", per(lk.TotalAcquires(), lk0.TotalAcquires()))
	put("lockmgr.cache_hits_per_txn", per(lk.CacheHits, lk0.CacheHits))
	put("lockmgr.sli_passed_per_1k_txn", 1e3*per(lk.SLIPassed, lk0.SLIPassed))
	put("lockmgr.sli_reclaim_ratio", ratio(float64(lk.SLIReclaimed-lk0.SLIReclaimed), float64(lk.SLIPassed-lk0.SLIPassed)))
	put("lockmgr.sli_invalidated_per_1k_txn", 1e3*per(lk.SLIInvalidated, lk0.SLIInvalidated))
	put("lockmgr.waits_per_1k_txn", 1e3*per(lk.Waits, lk0.Waits))
	put("lockmgr.deadlocks_per_1k_txn", 1e3*per(lk.Deadlocks, lk0.Deadlocks))

	prof := t.after.prof.Sub(t.before.prof)
	put("lockmgr.wait_share", ratio(prof.Get(profiler.LockWait).Seconds(), agentSeconds))
	var accounted float64 // every category, the two wait categories included
	for _, d := range prof {
		accounted += d.Seconds()
	}
	put("profiler.coverage", ratio(accounted, agentSeconds))

	lt, lt0 := t.after.tail, t.before.tail
	cycles := float64(lt.FlushCycles - lt0.FlushCycles)
	put("wal.flush_cycles_per_1k_txn", 1e3*ratio(cycles, txns))
	put("wal.sink_writes_per_cycle", ratio(float64(lt.SinkWrites-lt0.SinkWrites), cycles))
	put("wal.avg_window_us", 1e6*ratio(lt.WindowWaitSeconds-lt0.WindowWaitSeconds, float64(lt.WindowedCycles-lt0.WindowedCycles)))
	put("wal.reserve_wait_share", ratio(lt.ReserveWaitSeconds-lt0.ReserveWaitSeconds, agentSeconds))
	put("wal.buffer_full_wait_share", ratio(lt.BufferFullWaitSeconds-lt0.BufferFullWaitSeconds, agentSeconds))
	put("wal.fence_wait_share", ratio(lt.FenceWaitSeconds-lt0.FenceWaitSeconds, agentSeconds))
	var lag float64
	for _, v := range t.lagBytes {
		lag += v
	}
	put("wal.durable_lag_bytes", ratio(lag, float64(len(t.lagBytes))))
	put("wal.log_bytes_per_txn", t.logBytesPerTxn)

	put("core.dispatch_us_p50", t.spans.p50[spDispatch]/1e3)
	put("core.body_us_p50", t.spans.p50[spBody]/1e3)
	put("core.commit_us_p50", t.spans.p50[spCommit]/1e3)
	put("core.tx_get_ns_p50", t.spans.p50[spGet])
	put("core.tx_update_ns_p50", t.spans.p50[spUpdate])
	put("core.tx_insert_ns_p50", t.spans.p50[spInsert])
	put("core.tx_scan_us_p50", t.spans.p50[spScan]/1e3)
	put("trace.sample_every", float64(t.spans.every))
	put("trace.overhead_frac", 1-ratio(median(t.tps), median(u.tps)))

	uTxns := float64(u.after.committed - u.before.committed)
	put("core.allocs_per_txn", ratio(float64(u.after.mem.Mallocs-u.before.mem.Mallocs), uTxns))
	put("core.alloc_bytes_per_txn", ratio(float64(u.after.mem.TotalAlloc-u.before.mem.TotalAlloc), uTxns))
	put("core.gc_pause_ms_per_s", ratio(float64(u.after.mem.PauseTotalNs-u.before.mem.PauseTotalNs)/1e6, u.measured.Seconds()))
	put("client.lat_p99_us", median(u.p99us))
	put("client.lat_p999_us", median(u.p999us))

	bf, bf0 := t.after.buf, t.before.buf
	put("buffer.hit_ratio", ratio(float64(bf.Hits-bf0.Hits), float64(bf.Hits-bf0.Hits+bf.Misses-bf0.Misses)))
	put("buffer.evictions_per_1k_txn", 1e3*per(bf.Evictions, bf0.Evictions))
	put("buffer.writebacks_per_1k_txn", 1e3*per(bf.Writebacks, bf0.Writebacks))

	put("recovery.records_scanned", float64(t.rec.LogRecordsScanned))
	put("recovery.records_redone", float64(t.rec.RecordsRedone))
	put("recovery.redo_rec_per_s", ratio(float64(t.rec.RecordsRedone), median(t.restartS)))
	put("recovery.analyze_us_per_1k_rec", median(t.analyzeUS))
	put("recovery.checkpoint_ms", median(t.checkpointMS))
	put("recovery.restored_rows", float64(t.rec.RowsRestored))

	put("check.failed_frac", ratio(float64(u.failed+t.failed), float64(u.attempted+t.attempted)))
	put("check.lost_acked", float64(u.lostAcked+t.lostAcked))
	tmpfs := 0.0
	if ramlogTmpfs {
		tmpfs = 1
	}
	put("env.ramlog_tmpfs", tmpfs)
	return m
}
