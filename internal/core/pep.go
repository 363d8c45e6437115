package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// PEP MPI tags (user tag space; applications should avoid this range while
// a ParallelEventProcessor is active).
const (
	tagPEPWorkReq  = 1 << 20
	tagPEPWorkResp = 1<<20 + 1
)

// ProductSelector names a product to prefetch alongside events.
type ProductSelector struct {
	Label string
	Type  string
}

// SelectorFor builds a selector from a label and an example value of the
// product's type.
func SelectorFor(label string, example any) ProductSelector {
	return ProductSelector{Label: label, Type: serde.TypeName(example)}
}

// key returns the prefetch cache key.
func (s ProductSelector) key() string { return s.Label + "#" + s.Type }

// PEPOptions tunes the ParallelEventProcessor. Defaults follow §IV-D of
// the paper: events are loaded from HEPnOS by a subset of processes in
// batches of 16384 (few RPCs, large payloads), then shared among processes
// in batches of 64 (fine-grain load balancing).
type PEPOptions struct {
	// LoadBatchSize is the number of events fetched from a database per
	// RPC by a reader.
	LoadBatchSize int
	// WorkBatchSize is the number of events handed to a worker at a time.
	WorkBatchSize int
	// Readers is the number of ranks designated as readers; 0 means
	// min(number of event databases, communicator size), the paper's
	// "typically as many readers as databases to read from".
	Readers int
	// Prefetch lists products to fetch in bulk with the events and ship
	// inside work batches. Readers fetch them once per load chunk of 8
	// work batches rather than once per work batch, so each product
	// database gets few large GetMulti RPCs instead of one small one per
	// batch, without holding a whole page of products in memory at once.
	Prefetch []ProductSelector
}

func (o *PEPOptions) applyDefaults(ds *DataStore, commSize int) {
	if o.LoadBatchSize <= 0 {
		o.LoadBatchSize = 16384
	}
	if o.WorkBatchSize <= 0 {
		o.WorkBatchSize = 64
	}
	if o.Readers <= 0 {
		o.Readers = ds.NumEventDatabases()
	}
	if o.Readers > commSize {
		o.Readers = commSize
	}
}

// PEPStats reports what one ProcessEvents call did. Totals are identical
// on every rank (computed with allreduce); Local fields are per rank.
type PEPStats struct {
	LocalEvents int
	// LocalDegraded counts reads in this rank's work batches that left the
	// fast path: prefetch loads that fell back to on-demand RPCs because
	// every replica of their group failed, plus the replica-served reads
	// counted in LocalFailover.
	LocalDegraded int
	// LocalFailover counts reads (event keys and prefetched products)
	// served from a replica because the placement primary was unhealthy.
	LocalFailover int
	LocalStart    float64 // MPI Wtime at first processed batch
	LocalEnd      float64 // MPI Wtime after last processed batch
	TotalEvents   int64
	// TotalDegraded sums LocalDegraded across ranks: how much of the
	// prefetch batching was lost service-wide.
	TotalDegraded int64
	// TotalFailover sums LocalFailover across ranks: how much of the pass
	// was served by replicas instead of primaries.
	TotalFailover int64
	// Makespan is (max end − min start) across ranks — the paper's
	// throughput denominator.
	Makespan   float64
	Throughput float64 // events per second over the makespan
}

// pep wire messages (sent over the mpi layer, serde-encoded).
type pepWorkMsg struct {
	Done bool
	Keys [][]byte
	Pref []pepPrefEntry
	// Degraded is how many of this batch's prefetch loads failed over to
	// on-demand (the reader counts them; workers aggregate into stats).
	Degraded uint32
	// Failover is how many of this batch's reads (event keys owned via a
	// replica scan plus replica-served prefetch loads) left the primary.
	Failover uint32
}

type pepPrefEntry struct {
	EventIdx  uint32
	LabelType string
	Data      []byte
}

// ProcessEvents iterates over all events of the dataset in parallel across
// the communicator's ranks, invoking fn on each event exactly once
// service-wide. It implements the ParallelEventProcessor of §II-D: the
// first Readers ranks run background loaders that page event keys out of
// their assigned event databases and feed a queue; every rank (readers
// included) pulls work batches from the readers round-robin.
func (ds *DataStore) ProcessEvents(ctx context.Context, comm *mpi.Comm, dataset *DataSet, opts PEPOptions, fn func(*Event) error) (PEPStats, error) {
	if ds.closed.Load() {
		return PEPStats{}, ErrClosed
	}
	opts.applyDefaults(ds, comm.Size())

	// The whole run is one span; every RPC the readers and workers issue
	// parents under it through ctx.
	sp := ds.tracer.Start("core:pep", obs.KindInternal, obs.SpanFromContext(ctx), "")
	ctx = obs.ContextWithSpan(ctx, sp.Context())

	// Readers are long-running loops, so they get dedicated tracked
	// goroutines from the engine (the analog of dynamically created
	// execution streams) rather than occupying a fixed pool stream.
	var readerWG sync.WaitGroup
	if comm.Rank() < opts.Readers {
		readerWG.Add(1)
		ds.engine.Go(ctx, func(tctx context.Context) {
			defer readerWG.Done()
			ds.pepReader(tctx, comm, dataset, opts)
		})
	}

	stats, err := ds.pepWorker(ctx, comm, opts, fn)
	readerWG.Wait()

	// Aggregate: every rank learns the totals.
	stats.TotalEvents = comm.AllreduceInt64(int64(stats.LocalEvents), mpi.OpSum)
	stats.TotalDegraded = comm.AllreduceInt64(int64(stats.LocalDegraded), mpi.OpSum)
	stats.TotalFailover = comm.AllreduceInt64(int64(stats.LocalFailover), mpi.OpSum)
	start := comm.AllreduceFloat64(stats.LocalStart, mpi.OpMin)
	end := comm.AllreduceFloat64(stats.LocalEnd, mpi.OpMax)
	stats.Makespan = end - start
	if stats.Makespan > 0 {
		stats.Throughput = float64(stats.TotalEvents) / stats.Makespan
	}
	sp.End(err)
	return stats, err
}

// pepReader loads event keys from this reader's share of the event
// databases and serves work batches to requesting ranks.
func (ds *DataStore) pepReader(ctx context.Context, comm *mpi.Comm, dataset *DataSet, opts PEPOptions) {
	rank := comm.Rank()
	batches := make(chan pepWorkMsg, 64)

	// Background loader: page event keys out of the assigned databases in
	// LoadBatchSize pages, cut each page into load chunks, prefetch each
	// chunk's products, chop it into work batches. Like
	// the reader it is a long-running loop, so it runs on a dedicated
	// engine goroutine; its per-database GetMulti groups fan out on the
	// engine's RPC pool through the Prefetcher.
	pf := ds.NewPrefetcher(opts.Prefetch...)
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	ds.engine.Go(ctx, func(tctx context.Context) {
		defer loadWG.Done()
		defer close(batches)
		prefix := dataset.key.Bytes()
		eventDBs := ds.v().EventDBs
		chunk := pepChunkBatches * opts.WorkBatchSize
		for dbi := rank; dbi < len(eventDBs); dbi += opts.Readers {
			db := eventDBs[dbi]
			if ds.rf > 1 && !ds.health.Usable(string(db.Addr)) {
				// A dead database's keys are read-owned by their surviving
				// replicas, whose scans pick them up below.
				continue
			}
			var from []byte
			for {
				page, err := ds.yc.ListKeys(tctx, db, from, prefix, opts.LoadBatchSize)
				if err != nil || len(page) == 0 {
					break // a failed database simply contributes no events
				}
				from = page[len(page)-1]
				// Keep only event-level keys of this dataset. With
				// replication every event key appears in rf databases, so
				// a scan keeps only the keys it read-owns: the first
				// usable replica in placement order. Exactly one scan
				// claims each key (given a settled health view), which
				// preserves the PEP's exactly-once contract.
				var evKeys [][]byte
				foEvents := 0
				for _, k := range page {
					ck, err := keys.ParseContainerKey(k)
					if err != nil || ck.Level() != keys.LevelEvent {
						continue
					}
					if ds.rf > 1 {
						parent, ok := ck.Parent()
						if !ok {
							continue
						}
						replicas := ds.eventReplicas(parent)
						if owner := ds.readOrder(replicas)[0]; owner != db {
							continue // another database's scan claims this key
						} else if owner != replicas[0] {
							foEvents++ // claimed here only because the primary is down
						}
					}
					evKeys = append(evKeys, k)
				}
				if foEvents > 0 {
					ds.failoverReads.Add(int64(foEvents))
				}
				for lo := 0; lo < len(evKeys); lo += chunk {
					hi := min(lo+chunk, len(evKeys))
					msgs := pepChunk(tctx, pf, evKeys[lo:hi], opts.WorkBatchSize)
					if lo == 0 {
						// Page-level failover counts ride the page's first
						// batch; only the cross-rank totals are meaningful.
						msgs[0].Failover += uint32(foEvents)
					}
					for _, msg := range msgs {
						batches <- msg
					}
				}
			}
		}
	})

	// Server loop: answer work requests until every rank has been told
	// this reader is exhausted.
	doneSent := 0
	for doneSent < comm.Size() {
		data, src := comm.Recv(mpi.AnySource, tagPEPWorkReq)
		_ = data
		msg, ok := <-batches
		if !ok {
			msg = pepWorkMsg{Done: true}
			doneSent++
		}
		payload, err := serde.Marshal(msg)
		if err != nil {
			// Serialization of our own message types cannot fail; treat
			// as fatal for this reader by reporting done.
			payload, _ = serde.Marshal(pepWorkMsg{Done: true})
			doneSent++
		}
		comm.Send(src, tagPEPWorkResp, payload)
	}
	loadWG.Wait()
}

// pepChunkBatches is how many work batches one load chunk spans. The
// reader runs one Prefetcher.Fetch per chunk, so each product database
// sees one GetMulti per chunk instead of one per work batch: at the default
// 64-event batches that is 512 events per fetch, about 8× fewer RPCs with
// 8× larger payloads. Prefetching a whole LoadBatchSize page at once is
// faster still but keeps a page's worth of GetMulti responses and frame
// buffers live at a time, which costs more memory than it saves RPCs
// (EXPERIMENTS.md, "PEP prefetch chunk size").
const pepChunkBatches = 8

// pepChunk prefetches the products of one load chunk of event keys and
// cuts the chunk into work batches of wbs events. Each prefetched entry
// goes to the batch holding its event, with EventIdx rebased to that batch.
// The chunk's degraded and failover counts ride its first batch, so the
// cross-rank PEPStats totals count each exactly once.
func pepChunk(ctx context.Context, pf *Prefetcher, evKeys [][]byte, wbs int) []pepWorkMsg {
	msgs := make([]pepWorkMsg, (len(evKeys)+wbs-1)/wbs)
	for b := range msgs {
		msgs[b].Keys = evKeys[b*wbs : min((b+1)*wbs, len(evKeys))]
	}
	pref, degraded, failover := pf.Fetch(ctx, evKeys)
	msgs[0].Degraded = uint32(degraded)
	msgs[0].Failover = uint32(failover)
	if len(pref) == 0 {
		return msgs
	}
	// Counting sort by batch into one backing array: next[b] starts as the
	// offset of batch b's entries and ends as the offset one past them.
	next := make([]int, len(msgs))
	for _, e := range pref {
		next[int(e.EventIdx)/wbs]++
	}
	off := 0
	for b, n := range next {
		next[b], off = off, off+n
	}
	sorted := make([]pepPrefEntry, len(pref))
	for _, e := range pref {
		b := int(e.EventIdx) / wbs
		e.EventIdx -= uint32(b * wbs)
		sorted[next[b]] = e
		next[b]++
	}
	off = 0
	for b := range msgs {
		msgs[b].Pref = sorted[off:next[b]]
		off = next[b]
	}
	return msgs
}

// pepWorker pulls work batches from the readers round-robin and processes
// them. Every rank, reader or not, runs this.
func (ds *DataStore) pepWorker(ctx context.Context, comm *mpi.Comm, opts PEPOptions, fn func(*Event) error) (PEPStats, error) {
	var stats PEPStats
	var firstErr error
	alive := make([]int, 0, opts.Readers)
	for r := 0; r < opts.Readers; r++ {
		alive = append(alive, r)
	}
	started := false
	next := comm.Rank() % len(alive) // spread initial requests over readers
	for len(alive) > 0 {
		reader := alive[next%len(alive)]
		comm.Send(reader, tagPEPWorkReq, nil)
		payload, _ := comm.Recv(reader, tagPEPWorkResp)
		var msg pepWorkMsg
		if err := serde.Unmarshal(payload, &msg); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("hepnos: corrupt work batch: %w", err)
			}
			msg.Done = true
		}
		if msg.Done {
			// Remove this reader from the rotation.
			for i, r := range alive {
				if r == reader {
					alive = append(alive[:i], alive[i+1:]...)
					break
				}
			}
			continue
		}
		if !started {
			stats.LocalStart = comm.Wtime()
			started = true
		}
		stats.LocalDegraded += int(msg.Degraded) + int(msg.Failover)
		stats.LocalFailover += int(msg.Failover)
		ds.pepBatches.Add(1)
		// Rebuild per-event prefetch maps.
		var pref map[int]map[string][]byte
		if len(msg.Pref) > 0 {
			pref = make(map[int]map[string][]byte)
			for _, e := range msg.Pref {
				m := pref[int(e.EventIdx)]
				if m == nil {
					m = make(map[string][]byte)
					pref[int(e.EventIdx)] = m
				}
				m[e.LabelType] = e.Data
			}
		}
		for i, raw := range msg.Keys {
			ck, err := keys.ParseContainerKey(raw)
			if err != nil {
				continue
			}
			ev := ds.eventFromKey(ck, pref[i])
			if firstErr == nil {
				if err := fn(ev); err != nil {
					firstErr = err // keep draining so readers terminate
				}
			}
			stats.LocalEvents++
			ds.pepEvents.Add(1)
		}
		stats.LocalEnd = comm.Wtime()
		next++
	}
	if !started {
		now := comm.Wtime()
		stats.LocalStart, stats.LocalEnd = now, now
	}
	return stats, firstErr
}
