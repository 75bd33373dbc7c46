package main

import (
	"net/http"
	"time"

	"dsks"
)

// layerMetrics turns the traced pass into the per-layer metrics. Reads
// are the traced 200 reads; executed reads are those the result cache
// did not answer, and every per-read count, pool hit rate and leg count
// is taken over them. README.md maps each metric to the end-to-end metric
// it should move.
func layerMetrics(m map[string]metric, st *stack, pass []sample,
	walBefore dsks.MetricsSnapshot, walBytesBefore int64) {

	var (
		reads, exec, hits, rejected, requests, divExec, early int
		rtTraced, rtPlain, httpSelf, serverSelf, bytes        []float64
		overhead, mergeSelf, skew, pins, query                []float64
		expansion, posting, diversify                         []float64
		commits                                               []float64
		work                                                  dsks.SearchStats
		divCands, divPruned                                   int64
		logical, disk                                         = map[string]int64{}, map[string]int64{}
		legs, pruned                                          int64
		total, staged                                         time.Duration
		acked                                                 int
	)
	for _, s := range pass {
		if isWrite(s.op.kind) && s.status == http.StatusOK {
			acked++
		}
		sp := s.span
		if sp == nil {
			if !isWrite(s.op.kind) && s.status == http.StatusOK {
				rtPlain = append(rtPlain, us(s.rt))
			}
			continue
		}
		requests++
		if s.status == http.StatusTooManyRequests {
			rejected++
		}
		pins = append(pins, us(sp.pinned))
		if isWrite(s.op.kind) {
			if s.status == http.StatusOK && st.walDir != "" {
				commits = append(commits, us(sp.handler))
			}
			continue
		}
		if s.status != http.StatusOK {
			continue
		}
		reads++
		rtTraced = append(rtTraced, us(s.rt))
		httpSelf = append(httpSelf, us(s.rt-sp.handler))
		bytes = append(bytes, float64(s.nbytes))
		if s.hit {
			hits++
			continue
		}
		exec++
		for name, v := range sp.delta.logical {
			logical[name] += v
			disk[name] += sp.delta.disk[name]
		}
		legs += sp.delta.legs
		pruned += sp.delta.pruned
		w, err := decode(s.body)
		if err != nil {
			continue
		}
		elapsed := time.Duration(w.ElapsedMicros) * time.Microsecond
		query = append(query, ms(elapsed))
		overhead = append(overhead, us(s.rt-elapsed))
		serverSelf = append(serverSelf, us(sp.handler-elapsed))
		var slowest, sum, exp, post, div time.Duration
		for _, l := range sp.legs {
			if l.Total > slowest {
				slowest = l.Total
			}
			sum += l.Total
			exp += l.Expansion
			post += l.PostingReads
			div += l.Diversify
			total += l.Total
			staged += l.Expansion + l.PostingReads + l.Diversify
		}
		expansion = append(expansion, ms(exp))
		posting = append(posting, ms(post))
		diversify = append(diversify, ms(div))
		if st.set != nil {
			mergeSelf = append(mergeSelf, us(elapsed-slowest))
			if len(sp.legs) >= 2 && sum > 0 {
				skew = append(skew, float64(slowest)*float64(len(sp.legs))/float64(sum))
			}
		}
		work.Add(sp.work)
		if s.op.kind == kDiversified {
			divExec++
			divCands += sp.work.Candidates
			divPruned += sp.work.Pruned
			if sp.work.EarlyTerminate {
				early++
			}
		}
	}

	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("http.self_us.mean", "us", mean(httpSelf))
	set("server.overhead_us.p50", "us", quantile(overhead, 0.5))
	set("server.self_us.mean", "us", mean(serverSelf))
	set("server.cache_hit_ratio", "ratio", ratio(float64(hits), float64(reads)))
	set("server.response_bytes.mean", "bytes", mean(bytes))
	set("server.rejected_frac", "ratio", ratio(float64(rejected), float64(requests)))

	set("shard.legs_per_read", "count", ratio(float64(legs), float64(exec)))
	set("shard.pruned_leg_ratio", "ratio", ratio(float64(pruned), float64(legs+pruned)))
	set("shard.merge_self_us.p50", "us", quantile(mergeSelf, 0.5))
	set("shard.leg_skew.p99", "ratio", quantile(skew, 0.99))
	set("shard.object_imbalance", "ratio", st.objectImbalance())

	set("dsks.view_pin_us.p50", "us", quantile(pins, 0.5))
	set("dsks.query_ms.p50", "ms", quantile(query, 0.5))
	set("dsks.query_ms.p99", "ms", quantile(query, 0.99))

	set("core.expansion_ms.mean", "ms", mean(expansion))
	set("core.nodes_popped_per_read", "count", ratio(float64(work.NodesPopped), float64(exec)))
	set("core.edges_visited_per_read", "count", ratio(float64(work.EdgesVisited), float64(exec)))

	set("index.posting_ms.mean", "ms", mean(posting))
	set("index.candidates_per_read", "count", ratio(float64(work.Candidates), float64(exec)))
	set("index.candidate_yield", "ratio", ratio(float64(work.Candidates), float64(work.EdgesVisited)))

	var allLogical, allDisk int64
	for name, v := range logical {
		allLogical += v
		allDisk += disk[name]
	}
	set("storage.network_hit_rate", "ratio", hitRate(logical["network"], disk["network"]))
	set("storage.index_hit_rate", "ratio", hitRate(logical[string(dsks.IndexSIF)], disk[string(dsks.IndexSIF)]))
	set("storage.disk_reads_per_read", "count", ratio(float64(allDisk), float64(exec)))
	set("storage.logical_reads_per_read", "count", ratio(float64(allLogical), float64(exec)))

	set("core.diversify_ms.mean", "ms", mean(diversify))
	set("core.pair_dist_per_query", "count", ratio(float64(work.PairDistCalcs), float64(exec)))
	set("core.dist_settled_per_pair", "count", ratio(float64(work.DistSettled), float64(work.PairDistCalcs)))
	set("core.source_dijkstra_per_query", "count", ratio(float64(work.SourceDijkstra), float64(exec)))
	set("alt.ub_hit_ratio", "ratio", ratio(float64(work.OracleUBHits), float64(work.PairDistCalcs)))
	set("alt.pops_saved_per_pair", "count", ratio(float64(work.OraclePopsSaved), float64(work.PairDistCalcs)))
	set("alt.lb_prunes_total", "count", float64(work.OracleLBPrunes))

	set("core.com_pruned_ratio", "ratio", ratio(float64(divPruned), float64(divCands)))
	set("core.early_terminate_ratio", "ratio", ratio(float64(early), float64(divExec)))

	walAfter := st.counters()
	fsyncs := walAfter.Counters["wal_fsyncs_total"] - walBefore.Counters["wal_fsyncs_total"]
	synced := walAfter.Counters["wal_synced_records_total"] - walBefore.Counters["wal_synced_records_total"]
	set("wal.commit_us.p50", "us", quantile(commits, 0.5))
	set("wal.commit_us.p99", "us", quantile(commits, 0.99))
	set("wal.records_per_fsync", "count", ratio(float64(synced), float64(fsyncs)))
	walBytes := 0.0
	if st.walDir != "" {
		walBytes = ratio(float64(st.walBytes()-walBytesBefore), float64(acked))
	}
	set("wal.bytes_per_write", "bytes", walBytes)

	set("setup.generate_s", "s", st.generate.Seconds())
	set("setup.open_s", "s", st.open.Seconds())

	set("trace.overhead_frac", "ratio", ratio(median(rtTraced), median(rtPlain))-1)
	set("trace.unattributed_frac", "ratio", ratio(float64(total-staged), float64(total)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRate(logical, disk int64) float64 {
	if logical == 0 {
		return 0
	}
	return 1 - float64(disk)/float64(logical)
}
