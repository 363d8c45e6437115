package core

import (
	"sync/atomic"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

// Registry returns the client's metrics registry: fabric breadcrumbs,
// resilience activity, async pool counters and the core-layer counters,
// all collected on demand. Never nil after Connect.
func (ds *DataStore) Registry() *obs.Registry { return ds.registry }

// Tracer returns the client's span tracer (nil when tracing is off).
func (ds *DataStore) Tracer() *obs.Tracer { return ds.tracer }

// registerCoreMetrics wires the datastore's own cumulative counters into
// the client registry.
func (ds *DataStore) registerCoreMetrics() {
	ds.registry.MustRegister(obs.MetricPEPEvents,
		"Events processed by this rank's ParallelEventProcessor workers.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.pepEvents.Load()))
		})
	ds.registry.MustRegister(obs.MetricPEPBatches,
		"Work batches processed by this rank's ParallelEventProcessor workers.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.pepBatches.Load()))
		})
	ds.registry.MustRegister(obs.MetricPrefetchLoads,
		"Product loads requested by the Prefetcher.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.prefetchLoads.Load()))
		})
	ds.registry.MustRegister(obs.MetricPrefetchGroups,
		"Per-database GetMulti groups fanned out by the Prefetcher (replica retries excluded).",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.prefetchGroups.Load()))
		})
	ds.registry.MustRegister(obs.MetricPrefetchDegrade,
		"Prefetch product loads degraded to on-demand RPCs by failed groups.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.prefetchDegraded.Load()))
		})
	ds.registry.MustRegister(obs.MetricFailoverReads,
		"Reads served by a replica because the placement primary was unhealthy.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.failoverReads.Load()))
		})
	ds.registry.MustRegister(obs.MetricReplicaWrites,
		"Extra copies written beyond the first for replicated keys.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.replicaWrites.Load()))
		})
	ds.registry.MustRegister(obs.MetricReplicaDrops,
		"Replica copies dropped because their server was down (replayed by resync).",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.replicaDrops.Load()))
		})
	ds.registry.MustRegister(obs.MetricResyncReplayed,
		"Keys replayed onto rejoined servers by the anti-entropy pass.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.resyncReplayed.Load()))
		})
	ds.registry.MustRegister(obs.MetricRebalanceCopied,
		"Key copies written to migration target databases by live rebalancing.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.migrationCopied.Load()))
		})
	ds.registry.MustRegister(obs.MetricRebalanceRepaired,
		"Missing target copies healed by the migration verify pass.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.migrationRepaired.Load()))
		})
	ds.registry.MustRegister(obs.MetricRebalanceErased,
		"Stale keys erased from outgoing databases by migration retire.",
		obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.migrationErased.Load()))
		})
	ds.registry.MustRegister(obs.MetricRebalanceEpoch,
		"Membership epoch of this client's committed view.",
		obs.TypeGauge, func() []obs.Sample {
			return obs.GaugeSample(float64(ds.GroupEpoch()))
		})
	// Client-side pushdown-scan accounting; the server-side counterparts
	// (same family names, provider label) live in the yokan providers.
	scanCounter := func(name, help string, ctr *atomic.Int64) {
		ds.registry.MustRegister(name, help, obs.TypeCounter, func() []obs.Sample {
			return obs.GaugeSample(float64(ctr.Load()))
		})
	}
	scanCounter(obs.MetricScans,
		"Pushdown scan RPCs issued by this client.", &ds.scanRequests)
	scanCounter(obs.MetricScanPages,
		"Columnar pages examined by this client's pushdown scans.", &ds.scanPagesScanned)
	scanCounter(obs.MetricScanRowsScanned,
		"Rows examined by this client's pushdown scans.", &ds.scanRowsScanned)
	scanCounter(obs.MetricScanRowsMatched,
		"Rows surviving this client's pushdown-scan predicates.", &ds.scanRowsMatched)
	scanCounter(obs.MetricScanBytesReturned,
		"Bytes returned to this client by pushdown scans.", &ds.scanBytesReturned)
	scanCounter(obs.MetricScanBytesSaved,
		"Wire bytes pushdown scans saved this client versus full row-path decode.", &ds.scanBytesSaved)
}
