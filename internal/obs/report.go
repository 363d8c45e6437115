package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Source is one scraped process: its name (address or role), its metric
// families and its buffered spans. cmd/hepnos-metrics builds one Source
// per server plus one for the client, then renders a single report.
type Source struct {
	Name     string   `json:"name"`
	Families []Family `json:"families"`
	Spans    []Span   `json:"spans,omitempty"`
}

// Metric family names shared between the layers that register them and
// the report that reads them back. Keeping them here (the one package
// everything imports) prevents writer/reader drift.
const (
	MetricRPCCalls   = "hepnos_fabric_rpc_calls_total"
	MetricRPCErrors  = "hepnos_fabric_rpc_errors_total"
	MetricRPCSeconds = "hepnos_fabric_rpc_seconds_total"

	MetricYokanOps       = "hepnos_yokan_ops_total"
	MetricYokanOpSeconds = "hepnos_yokan_op_seconds_total"

	MetricAsyncSubmitted = "hepnos_async_submitted_total"
	MetricAsyncCompleted = "hepnos_async_completed_total"
	MetricAsyncFailed    = "hepnos_async_failed_total"
	MetricAsyncRejected  = "hepnos_async_rejected_total"
	MetricAsyncDepth     = "hepnos_async_pool_depth"
	MetricAsyncMaxDepth  = "hepnos_async_pool_max_depth"

	MetricRetries         = "hepnos_resilience_retries_total"
	MetricBudgetExhausted = "hepnos_resilience_budget_exhausted_total"
	MetricCircuitOpen     = "hepnos_resilience_circuit_open_total"
	MetricBreakerTrips    = "hepnos_resilience_breaker_trips_total"
	MetricBreakerState    = "hepnos_resilience_breaker_state"

	MetricPEPEvents       = "hepnos_pep_events_total"
	MetricPEPBatches      = "hepnos_pep_batches_total"
	MetricPrefetchLoads   = "hepnos_prefetch_loads_total"
	MetricPrefetchGroups  = "hepnos_prefetch_groups_total"
	MetricPrefetchDegrade = "hepnos_prefetch_degraded_total"

	MetricSpansRecorded = "hepnos_obs_spans_total"
	MetricSpansDropped  = "hepnos_obs_spans_dropped_total"

	// MetricErrors counts every error an endpoint observed (sent or
	// served), labeled by its xerr class — the error-aware half of the
	// observability story.
	MetricErrors = "hepnos_errors_total"

	MetricQoSAdmitted   = "hepnos_qos_admitted_total"
	MetricQoSShed       = "hepnos_qos_shed_total"
	MetricQoSQueuedNs   = "hepnos_qos_queued_ns_total"
	MetricQoSQueueDepth = "hepnos_qos_queue_depth"
	MetricQoSPressure   = "hepnos_qos_pressure"
	MetricQoSThrottle   = "hepnos_qos_throttle_reserved_slots"

	// Storage-tier (LSM) families: block-cache effectiveness for the read
	// hot path, background flush/compaction activity, and WAL fsync
	// amortization under group commit.
	MetricLSMCacheHits      = "hepnos_lsm_cache_hits_total"
	MetricLSMCacheMisses    = "hepnos_lsm_cache_misses_total"
	MetricLSMCacheEvictions = "hepnos_lsm_cache_evictions_total"
	MetricLSMCacheRejects   = "hepnos_lsm_cache_admission_rejects_total"
	MetricLSMCacheBytes     = "hepnos_lsm_cache_bytes"
	MetricLSMFlushes        = "hepnos_lsm_flushes_total"
	MetricLSMCompactions    = "hepnos_lsm_compactions_total"
	MetricLSMTables         = "hepnos_lsm_tables"
	MetricLSMWALAppends     = "hepnos_lsm_wal_appends_total"
	MetricLSMWALSyncs       = "hepnos_lsm_wal_syncs_total"
	MetricLSMQuarantined    = "hepnos_lsm_quarantined_tables_total"

	// Pushdown-scan families (columnar pages, DESIGN.md §17): registered
	// server-side by the yokan provider and client-side by core, whose
	// samples aggregate the per-reply accounting.
	MetricScanPages         = "hepnos_scan_pages_total"
	MetricScanRowsScanned   = "hepnos_scan_rows_scanned_total"
	MetricScanRowsMatched   = "hepnos_scan_rows_matched_total"
	MetricScanBytesReturned = "hepnos_scan_bytes_returned_total"
	MetricScanBytesSaved    = "hepnos_scan_bytes_saved_total"
	MetricScans             = "hepnos_scan_requests_total"

	// Live-rebalancing families (DESIGN.md §18): client-side migration
	// accounting plus the server-attached progress view the rebalance
	// admin RPC exposes.
	MetricRebalanceCopied   = "hepnos_rebalance_keys_copied_total"
	MetricRebalanceRepaired = "hepnos_rebalance_keys_repaired_total"
	MetricRebalanceErased   = "hepnos_rebalance_keys_erased_total"
	MetricRebalanceEpoch    = "hepnos_rebalance_view_epoch"

	MetricHealthState       = "hepnos_health_state"
	MetricHealthTransitions = "hepnos_health_transitions_total"
	MetricHealthProbes      = "hepnos_health_probes_total"
	MetricFailoverReads     = "hepnos_failover_reads_total"
	MetricReplicaWrites     = "hepnos_replica_writes_total"
	MetricReplicaDrops      = "hepnos_replica_drops_total"
	MetricResyncReplayed    = "hepnos_resync_replayed_total"
)

// RenderReport turns scraped sources into the hot-path text report: the
// hottest RPCs by cumulative origin-side time, per-database server-side
// service time, async pool saturation, resilience activity (retries,
// breaker trips, open circuits) and degraded prefetch loads, plus a span
// linkage summary showing how many client round trips matched a
// server-side span.
func RenderReport(sources []Source) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hepnos observability report — %d source(s)\n", len(sources))
	for _, s := range sources {
		fmt.Fprintf(&b, "  source %s: %d families, %d spans\n", s.Name, len(s.Families), len(s.Spans))
	}

	renderHotRPCs(&b, sources)
	renderYokanServiceTime(&b, sources)
	renderAsyncPools(&b, sources)
	renderResilience(&b, sources)
	renderDegraded(&b, sources)
	renderSpanLinkage(&b, sources)
	return b.String()
}

type rpcAgg struct {
	calls, errors, seconds float64
}

func renderHotRPCs(b *strings.Builder, sources []Source) {
	agg := map[string]*rpcAgg{}
	for _, src := range sources {
		forEachSample(src, MetricRPCCalls, func(s Sample) { rpcOf(agg, s).calls += s.Value })
		forEachSample(src, MetricRPCErrors, func(s Sample) { rpcOf(agg, s).errors += s.Value })
		forEachSample(src, MetricRPCSeconds, func(s Sample) { rpcOf(agg, s).seconds += s.Value })
	}
	if len(agg) == 0 {
		return
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if agg[names[i]].seconds != agg[names[j]].seconds {
			return agg[names[i]].seconds > agg[names[j]].seconds
		}
		return names[i] < names[j]
	})
	b.WriteString("\nhottest RPCs (origin-side, by cumulative time):\n")
	for i, n := range names {
		if i == 10 {
			fmt.Fprintf(b, "  … %d more\n", len(names)-10)
			break
		}
		a := agg[n]
		mean := time.Duration(0)
		if a.calls > 0 {
			mean = time.Duration(a.seconds / a.calls * float64(time.Second))
		}
		fmt.Fprintf(b, "  %-40s calls=%-8.0f total=%-10s mean=%-10s errors=%.0f\n",
			n, a.calls, time.Duration(a.seconds*float64(time.Second)).Round(time.Microsecond),
			mean.Round(time.Microsecond), a.errors)
	}
}

func rpcOf(agg map[string]*rpcAgg, s Sample) *rpcAgg {
	n := s.Labels["rpc"]
	a := agg[n]
	if a == nil {
		a = &rpcAgg{}
		agg[n] = a
	}
	return a
}

func renderYokanServiceTime(b *strings.Builder, sources []Source) {
	type key struct{ db, op string }
	ops := map[key]float64{}
	secs := map[key]float64{}
	for _, src := range sources {
		forEachSample(src, MetricYokanOps, func(s Sample) {
			ops[key{s.Labels["db"], s.Labels["op"]}] += s.Value
		})
		forEachSample(src, MetricYokanOpSeconds, func(s Sample) {
			secs[key{s.Labels["db"], s.Labels["op"]}] += s.Value
		})
	}
	if len(ops) == 0 {
		return
	}
	keys := make([]key, 0, len(ops))
	for k := range ops {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].db != keys[j].db {
			return keys[i].db < keys[j].db
		}
		return keys[i].op < keys[j].op
	})
	b.WriteString("\nper-database service time (server-side):\n")
	for _, k := range keys {
		n := ops[k]
		mean := time.Duration(0)
		if n > 0 {
			mean = time.Duration(secs[k] / n * float64(time.Second))
		}
		fmt.Fprintf(b, "  db=%-24s op=%-16s ops=%-8.0f total=%-10s mean=%s\n",
			k.db, k.op, n,
			time.Duration(secs[k]*float64(time.Second)).Round(time.Microsecond),
			mean.Round(time.Microsecond))
	}
}

func renderAsyncPools(b *strings.Builder, sources []Source) {
	wrote := false
	for _, src := range sources {
		pools := map[string]map[string]float64{}
		collect := func(metric, field string) {
			forEachSample(src, metric, func(s Sample) {
				p := s.Labels["pool"]
				if pools[p] == nil {
					pools[p] = map[string]float64{}
				}
				pools[p][field] += s.Value
			})
		}
		collect(MetricAsyncSubmitted, "submitted")
		collect(MetricAsyncCompleted, "completed")
		collect(MetricAsyncFailed, "failed")
		collect(MetricAsyncRejected, "rejected")
		collect(MetricAsyncDepth, "depth")
		collect(MetricAsyncMaxDepth, "max_depth")
		if len(pools) == 0 {
			continue
		}
		if !wrote {
			b.WriteString("\nasync pool saturation:\n")
			wrote = true
		}
		names := make([]string, 0, len(pools))
		for n := range pools {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			f := pools[n]
			fmt.Fprintf(b, "  [%s] pool=%-16s depth=%.0f high-water=%.0f submitted=%.0f completed=%.0f failed=%.0f rejected=%.0f\n",
				src.Name, n, f["depth"], f["max_depth"], f["submitted"], f["completed"], f["failed"], f["rejected"])
		}
	}
}

func renderResilience(b *strings.Builder, sources []Source) {
	var retries, budget, open, trips float64
	type tgt struct{ source, target string }
	states := map[tgt]float64{}
	for _, src := range sources {
		retries += sumSamples(src, MetricRetries)
		budget += sumSamples(src, MetricBudgetExhausted)
		open += sumSamples(src, MetricCircuitOpen)
		trips += sumSamples(src, MetricBreakerTrips)
		forEachSample(src, MetricBreakerState, func(s Sample) {
			states[tgt{src.Name, s.Labels["target"]}] = s.Value
		})
	}
	if retries == 0 && budget == 0 && open == 0 && trips == 0 && len(states) == 0 {
		return
	}
	b.WriteString("\nresilience:\n")
	fmt.Fprintf(b, "  retries=%.0f budget-exhausted=%.0f circuit-open-rejections=%.0f breaker-trips=%.0f\n",
		retries, budget, open, trips)
	keys := make([]tgt, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].source != keys[j].source {
			return keys[i].source < keys[j].source
		}
		return keys[i].target < keys[j].target
	})
	for _, k := range keys {
		fmt.Fprintf(b, "  [%s] breaker target=%-28s state=%s\n", k.source, k.target, breakerStateName(states[k]))
	}
}

func breakerStateName(v float64) string {
	switch v {
	case 0:
		return "closed"
	case 1:
		return "half-open"
	case 2:
		return "open"
	default:
		return fmt.Sprintf("unknown(%g)", v)
	}
}

func renderDegraded(b *strings.Builder, sources []Source) {
	var loads, groups, degraded float64
	for _, src := range sources {
		loads += sumSamples(src, MetricPrefetchLoads)
		groups += sumSamples(src, MetricPrefetchGroups)
		degraded += sumSamples(src, MetricPrefetchDegrade)
	}
	if loads == 0 && degraded == 0 {
		return
	}
	b.WriteString("\nprefetcher:\n")
	fmt.Fprintf(b, "  loads=%.0f groups=%.0f degraded=%.0f\n", loads, groups, degraded)
}

// renderSpanLinkage matches server-side spans to the client spans that
// caused them: a server span's Parent is the client span's ID, carried
// in the RPC envelope. The count of matched pairs is the report's proof
// that propagation worked end to end.
func renderSpanLinkage(b *strings.Builder, sources []Source) {
	clientIDs := map[uint64]string{}
	total := 0
	for _, src := range sources {
		total += len(src.Spans)
		for _, sp := range src.Spans {
			if sp.Kind == KindClient {
				clientIDs[sp.ID] = sp.Name
			}
		}
	}
	if total == 0 {
		return
	}
	linked := 0
	byName := map[string]int{}
	for _, src := range sources {
		for _, sp := range src.Spans {
			if sp.Kind == KindServer && clientIDs[sp.Parent] != "" {
				linked++
				byName[sp.Name]++
			}
		}
	}
	b.WriteString("\nspans:\n")
	fmt.Fprintf(b, "  buffered=%d linked client→server pairs=%d\n", total, linked)
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "  linked %-40s %d\n", n, byName[n])
	}
}

// --- small family accessors ---------------------------------------------

func forEachSample(src Source, name string, fn func(Sample)) {
	for _, f := range src.Families {
		if f.Name == name {
			for _, s := range f.Samples {
				fn(s)
			}
		}
	}
}

func sumSamples(src Source, name string) float64 {
	var t float64
	forEachSample(src, name, func(s Sample) { t += s.Value })
	return t
}
