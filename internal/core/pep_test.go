package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

// buildEventSample fills a dataset with events spread over runs/subruns and
// attaches a payload product to each. Returns the set of expected IDs.
func buildEventSample(t testing.TB, ds *DataStore, path string, runs, subruns, events int) map[EventID]bool {
	t.Helper()
	ctx := context.Background()
	d, err := ds.CreateDataSet(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	wb := ds.NewWriteBatch()
	wb.MaxPending = 4096
	want := make(map[EventID]bool)
	for r := 1; r <= runs; r++ {
		run, err := wb.CreateRun(ctx, d, uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < subruns; s++ {
			sr, err := wb.CreateSubRun(ctx, run, uint64(s))
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < events; e++ {
				ev, err := wb.CreateEvent(ctx, sr, uint64(e))
				if err != nil {
					t.Fatal(err)
				}
				payload := []particle{{X: float32(r), Y: float32(s), Z: float32(e)}}
				if err := wb.Store(ctx, ev, "parts", payload); err != nil {
					t.Fatal(err)
				}
				want[EventID{Run: uint64(r), SubRun: uint64(s), Event: uint64(e)}] = true
			}
		}
	}
	if err := wb.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestProcessEventsCoversEveryEventExactlyOnce(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	want := buildEventSample(t, ds, "pep", 3, 8, 20) // 480 events
	d, _ := ds.OpenDataSet(context.Background(), "pep")

	var mu sync.Mutex
	seen := make(map[EventID]int)
	const ranks = 6
	var statsByRank [ranks]PEPStats
	var errByRank [ranks]error

	mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			LoadBatchSize: 64,
			WorkBatchSize: 8,
		}, func(ev *Event) error {
			mu.Lock()
			seen[ev.ID()]++
			mu.Unlock()
			return nil
		})
		statsByRank[c.Rank()] = stats
		errByRank[c.Rank()] = err
	})

	for r, err := range errByRank {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("saw %d distinct events, want %d", len(seen), len(want))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("event %v processed %d times", id, n)
		}
		if !want[id] {
			t.Fatalf("unexpected event %v", id)
		}
	}
	var total int64
	local := 0
	for _, st := range statsByRank {
		local += st.LocalEvents
		total = st.TotalEvents
	}
	if local != len(want) || total != int64(len(want)) {
		t.Fatalf("stats: local sum %d, total %d, want %d", local, total, len(want))
	}
	if statsByRank[0].Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestProcessEventsLoadIsShared(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	buildEventSample(t, ds, "balance", 2, 16, 30) // 960 events
	d, _ := ds.OpenDataSet(context.Background(), "balance")

	const ranks = 4
	var counts [ranks]int
	mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			LoadBatchSize: 128,
			WorkBatchSize: 8,
		}, func(*Event) error { return nil })
		if err != nil {
			t.Error(err)
		}
		counts[c.Rank()] = stats.LocalEvents
	})
	// Fine-grained batches should spread work: no rank should get
	// everything, every rank should get something.
	for r, n := range counts {
		if n == 0 {
			t.Fatalf("rank %d processed nothing: %v", r, counts)
		}
		if n == 960 {
			t.Fatalf("rank %d processed everything: %v", r, counts)
		}
	}
}

func TestProcessEventsWithProducts(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	buildEventSample(t, ds, "prods", 2, 4, 10)
	d, _ := ds.OpenDataSet(context.Background(), "prods")

	var mu sync.Mutex
	bad := 0
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			WorkBatchSize: 4,
		}, func(ev *Event) error {
			var ps []particle
			if err := ev.Load(context.Background(), "parts", &ps); err != nil {
				return err
			}
			id := ev.ID()
			if len(ps) != 1 || ps[0].X != float32(id.Run) || ps[0].Z != float32(id.Event) {
				mu.Lock()
				bad++
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if bad != 0 {
		t.Fatalf("%d events had mismatched products", bad)
	}
}

func TestProcessEventsPrefetch(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2})
	buildEventSample(t, ds, "prefetch", 2, 4, 25)
	d, _ := ds.OpenDataSet(context.Background(), "prefetch")

	// With prefetch, loads must be served from the shipped cache — verify
	// by checking correctness and that it works with a canceled-later ctx.
	var mu sync.Mutex
	loaded := 0
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			WorkBatchSize: 8,
			Prefetch:      []ProductSelector{SelectorFor("parts", []particle{})},
		}, func(ev *Event) error {
			var ps []particle
			if err := ev.Load(context.Background(), "parts", &ps); err != nil {
				return err
			}
			if len(ps) != 1 {
				return fmt.Errorf("event %v: %d particles", ev.ID(), len(ps))
			}
			mu.Lock()
			loaded++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if loaded != 200 {
		t.Fatalf("loaded %d products, want 200", loaded)
	}
}

func TestProcessEventsSingleRank(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	want := buildEventSample(t, ds, "solo", 1, 4, 10)
	d, _ := ds.OpenDataSet(context.Background(), "solo")
	n := 0
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{}, func(*Event) error {
			n++
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		if stats.TotalEvents != int64(len(want)) {
			t.Errorf("total = %d", stats.TotalEvents)
		}
	})
	if n != len(want) {
		t.Fatalf("processed %d, want %d", n, len(want))
	}
}

func TestProcessEventsEmptyDataset(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	d, _ := ds.CreateDataSet(context.Background(), "empty")
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{}, func(*Event) error {
			t.Error("callback invoked on empty dataset")
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		if stats.TotalEvents != 0 {
			t.Errorf("total = %d", stats.TotalEvents)
		}
	})
}

func TestProcessEventsCallbackError(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	buildEventSample(t, ds, "failing", 1, 2, 50)
	d, _ := ds.OpenDataSet(context.Background(), "failing")
	boom := errors.New("detector on fire")
	gotErr := 0
	var mu sync.Mutex
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{WorkBatchSize: 4}, func(ev *Event) error {
			return boom
		})
		// Ranks that processed at least one batch must report the error;
		// crucially, nobody deadlocks.
		if errors.Is(err, boom) {
			mu.Lock()
			gotErr++
			mu.Unlock()
		}
	})
	if gotErr == 0 {
		t.Fatal("no rank reported the callback error")
	}
}

func TestProcessEventsMoreReadersThanRanks(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 2}) // 8 event DBs
	want := buildEventSample(t, ds, "fewranks", 2, 6, 10)
	d, _ := ds.OpenDataSet(context.Background(), "fewranks")
	var mu sync.Mutex
	n := 0
	mpi.NewWorld(2).Run(func(c *mpi.Comm) { // fewer ranks than event DBs
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{WorkBatchSize: 8}, func(*Event) error {
			mu.Lock()
			n++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if n != len(want) {
		t.Fatalf("processed %d, want %d", n, len(want))
	}
}

// TestProcessEventsPrefetchChunks guards the reader's load-chunk split: one
// Prefetcher.Fetch per chunk of pepChunkBatches work batches, its entries
// redistributed to the chunk's batches with EventIdx rebased per batch. The
// work batch (48) divides neither the page (900, then a 100-key tail) nor
// the chunks within it (384, 384, 132), and every event carries its own
// product value, so an entry shipped to the wrong batch or slot shows up as
// a wrong or missing product.
func TestProcessEventsPrefetchChunks(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1, EventDBsPerServer: 1})
	want := buildEventSample(t, ds, "chunks", 2, 5, 100) // 1000 events
	d, _ := ds.OpenDataSet(context.Background(), "chunks")
	const wbs = 48
	if len(want) <= 2*pepChunkBatches*wbs {
		t.Fatalf("sample of %d events does not span more than two chunks", len(want))
	}
	sel := SelectorFor("parts", []particle{})

	var mu sync.Mutex
	seen := make(map[EventID]int)
	var problems []string
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		_, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			LoadBatchSize: 900,
			WorkBatchSize: wbs,
			Prefetch:      []ProductSelector{sel},
		}, func(ev *Event) error {
			id := ev.ID()
			_, shipped := ev.prefetched[sel.key()]
			var ps []particle
			err := ev.Load(context.Background(), "parts", &ps)
			mu.Lock()
			defer mu.Unlock()
			seen[id]++
			switch {
			case !shipped:
				problems = append(problems, fmt.Sprintf("event %v: product not prefetched (on-demand fallback)", id))
			case err != nil:
				problems = append(problems, fmt.Sprintf("event %v: %v", id, err))
			case len(ps) != 1 || ps[0] != (particle{X: float32(id.Run), Y: float32(id.SubRun), Z: float32(id.Event)}):
				problems = append(problems, fmt.Sprintf("event %v: got another event's product %+v", id, ps))
			}
			return nil
		})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
	})
	if len(problems) > 0 {
		t.Fatalf("%d bad loads, first: %s", len(problems), problems[0])
	}
	if len(seen) != len(want) {
		t.Fatalf("saw %d distinct events, want %d", len(seen), len(want))
	}
	for id, n := range seen {
		if n != 1 || !want[id] {
			t.Fatalf("event %v processed %d times (expected: %v)", id, n, want[id])
		}
	}
	if deg := metricValue(t, ds.Registry(), obs.MetricPrefetchDegrade); deg != 0 {
		t.Fatalf("%v prefetch loads degraded on a healthy service", deg)
	}
}

// TestProcessEventsPrefetchRPCBudget locks the prefetch fan-out to load
// chunks: a pass over N events in one page may issue at most one GetMulti
// group per product database per chunk. Prefetching per work batch instead
// would issue pepChunkBatches times as many and fail here.
func TestProcessEventsPrefetchRPCBudget(t *testing.T) {
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1, EventDBsPerServer: 1})
	want := buildEventSample(t, ds, "budget", 2, 5, 100) // 1000 events, one page
	d, _ := ds.OpenDataSet(context.Background(), "budget")
	before := metricValue(t, ds.Registry(), obs.MetricPrefetchGroups)

	const wbs = 64
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		stats, err := ds.ProcessEvents(context.Background(), c, d, PEPOptions{
			WorkBatchSize: wbs,
			Prefetch:      []ProductSelector{SelectorFor("parts", []particle{})},
		}, func(*Event) error { return nil })
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if stats.TotalEvents != int64(len(want)) {
			t.Errorf("rank %d: total %d events, want %d", c.Rank(), stats.TotalEvents, len(want))
		}
	})
	chunk := pepChunkBatches * wbs
	budget := (len(want) + chunk - 1) / chunk * len(ds.v().ProductDBs)
	groups := int(metricValue(t, ds.Registry(), obs.MetricPrefetchGroups) - before)
	if groups == 0 || groups > budget {
		t.Fatalf("pass over %d events issued %d prefetch groups, budget %d (ceil(N/%d) × %d product DBs)",
			len(want), groups, budget, chunk, len(ds.v().ProductDBs))
	}
}

// TestProcessEventsDegradedAccountingExact checks that chunked prefetch
// reports each degraded product load exactly once: with RF=1 and a dead
// server, every group bound for its product databases falls back to
// on-demand, and the PEP's cross-rank degraded count (minus failover) must
// equal what the Prefetcher's own counter saw, over many chunks.
func TestProcessEventsDegradedAccountingExact(t *testing.T) {
	ds, d, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 2, EventDBsPerServer: 1})
	buildEventSample(t, ds, "degraded", 2, 20, 25) // 40 subruns over 2 event DBs
	dd, _ := ds.OpenDataSet(context.Background(), "degraded")
	d.Servers[1].Shutdown()
	before := metricValue(t, ds.Registry(), obs.MetricPrefetchDegrade)

	var stats PEPStats
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		st, err := ds.ProcessEvents(context.Background(), c, dd, PEPOptions{
			WorkBatchSize: 8,
			Prefetch:      []ProductSelector{SelectorFor("parts", []particle{})},
		}, func(*Event) error { return nil })
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if c.Rank() == 0 {
			stats = st
		}
	})
	delta := int64(metricValue(t, ds.Registry(), obs.MetricPrefetchDegrade) - before)
	if delta == 0 || stats.TotalEvents <= 2*pepChunkBatches*8 {
		t.Fatalf("scenario too weak: %d degraded loads over %d events", delta, stats.TotalEvents)
	}
	if got := stats.TotalDegraded - stats.TotalFailover; got != delta {
		t.Fatalf("TotalDegraded−TotalFailover = %d, prefetch degraded counter moved by %d: %+v", got, delta, stats)
	}
}
