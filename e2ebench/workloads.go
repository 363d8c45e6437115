package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/dataloader"
	"github.com/hep-on-hpc/hepnos-go/internal/filebased"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/workflow"
)

type workloadFunc func(ctx context.Context, opt options, dir string, out *outcome) error

var workloads = map[string]workloadFunc{
	"ingest":     runIngest,
	"select":     runRead(inprocMap, false, selectPass),
	"scan":       runRead(inprocMap, true, scanPass),
	"select_lsm": runRead(tcpLSM, false, selectPass),
}

// minPasses keeps a median meaningful when passes are long.
const minPasses = 3

// timed is one measured pass: its wall time scaled to the nominal host
// speed (see hostspeed.go), its raw wall time, and the slices it examined.
type timed struct {
	seconds float64
	raw     float64
	slices  int
}

// repeat runs pass until seconds have elapsed, at least minPasses times,
// collecting a GC before each pass so every pass starts from the same heap,
// and scales each pass's time by the reference job's runs around it. A pass
// sets only the raw seconds of its result. A pass returning an error aborts
// the run; failed operations are counted in out by the pass itself and
// return ok=false.
func repeat(seconds float64, pass func(i int) (timed, bool, error)) ([]timed, error) {
	var done []timed
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	br := host.bracket()
	group := 0 // first pass of done not scaled yet
	for i := 0; ; i++ {
		runtime.GC()
		t, ok, err := pass(i)
		if err != nil {
			return nil, err
		}
		if ok {
			t.raw = t.seconds
			done = append(done, t)
		}
		last := i+1 >= minPasses && !time.Now().Before(deadline)
		if last || br.due() {
			f := br.close()
			for j := group; j < len(done); j++ {
				done[j].seconds = done[j].raw * f
			}
			group = len(done)
		}
		if last {
			break
		}
	}
	if len(done) == 0 {
		return nil, fmt.Errorf("every pass failed")
	}
	fmt.Printf("passes: %d, raw seconds %s\n", len(done), fmtList(rawSeconds(done)))
	fmt.Printf("reference job: %d runs, seconds %s\n", len(br.ref), fmtList(br.ref))
	return done, nil
}

func passSeconds(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.seconds
	}
	return out
}

func rawSeconds(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.raw
	}
	return out
}

// endToEnd sets the throughput metrics from the median scaled pass. Every
// pass covers the whole sample, so both rates share that pass's time.
func endToEnd(out *outcome, ts []timed, events, slices int) {
	med := median(passSeconds(ts))
	fmt.Printf("raw (unscaled) median pass: %.0f events/s, %.0f slices/s\n",
		float64(events)/median(rawSeconds(ts)), float64(slices)/median(rawSeconds(ts)))
	out.set("events_per_s", float64(events)/med)
	out.set("slices_per_s", float64(slices)/med)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ---- ingest ----------------------------------------------------------

// runIngest measures the paper's ingest phase: each pass loads the whole
// sample into a freshly deployed tcp+lsm service, timed from the
// IngestFiles call to its return, and checks the event census after.
func runIngest(ctx context.Context, opt options, dir string, out *outcome) error {
	setup, smp, svc, err := setUp(dir, opt.seed, opt.trace, func(rep int, smp sample) (*service, error) {
		return deploy(ctx, tcpLSM, filepath.Join(dir, fmt.Sprintf("setup-%d", rep)))
	})
	if err != nil {
		return err
	}
	svc.close()
	b, err := binding(smp)
	if err != nil {
		return err
	}

	var (
		allocs uint64
		reg    deltas
		tr     *tracer
		disk   int64
		rows   uint64
		pages  uint64
	)
	pass := func(i int) (timed, bool, error) {
		svc, err := deploy(ctx, tcpLSM, filepath.Join(dir, fmt.Sprintf("pass-%d-%v", i, tr != nil)))
		if err != nil {
			return timed{}, false, err
		}
		defer svc.close()
		scraped := opt.trace && tr == nil
		var before scrape
		if scraped {
			before = takeScrape(svc)
		}
		m0 := mallocs()
		start := time.Now()
		var st dataloader.IngestStats
		if tr == nil {
			st, err = svc.loader().IngestFiles(ctx, svc.dataset, b, smp.paths)
		} else {
			st, err = tracedIngest(ctx, svc, b, smp, tr)
		}
		t := timed{seconds: time.Since(start).Seconds(), slices: st.Rows}
		allocs += mallocs() - m0
		out.attempted += len(smp.paths)
		if err != nil {
			out.fail(len(smp.paths)-st.Files, "ingest pass %d: %v", i, err)
			return t, false, nil
		}
		n, err := svc.eventCensus(ctx)
		if err != nil {
			return t, false, fmt.Errorf("event census: %w", err)
		}
		if n != smp.events || st.Events != smp.events || st.Rows != smp.slices {
			out.fail(len(smp.paths), "ingest pass %d: census %d events, loader %d events / %d slices, generated %d / %d",
				i, n, st.Events, st.Rows, smp.events, smp.slices)
			return t, false, nil
		}
		if i == 0 && tr == nil {
			if rows, pages, err = svc.layout(ctx); err != nil {
				return t, false, err
			}
			fmt.Printf("layout: %d row products, %d columnar page keys\n", rows, pages)
			if pages != 0 {
				return t, false, fmt.Errorf("ingest stored %d columnar page keys; the row layout was expected", pages)
			}
		}
		if scraped {
			reg.add(before, takeScrape(svc))
			if disk, err = dirBytes(svc.dir); err != nil {
				return t, false, err
			}
		}
		return t, true, nil
	}

	if !opt.trace {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		ts, err := repeat(opt.seconds, pass)
		if err != nil {
			return err
		}
		out.set("setup_s", setup)
		endToEnd(out, ts, smp.events, smp.slices)
		out.set("allocs_per_slice", float64(allocs)/float64(len(ts)*smp.slices))
		return setPeakRSS(out)
	}

	plain, err := repeat(opt.seconds/2, pass)
	if err != nil {
		return err
	}
	tr = newTracer(opt)
	traced, err := repeat(opt.seconds/2, pass)
	if err != nil {
		return err
	}
	reg.layerMetrics(out, len(plain), smp.slices)
	out.set("yokan.lsm.disk_bytes_per_input_byte", float64(disk)/float64(smp.bytes))
	out.set("core.product_rows", float64(rows))
	out.set("core.product_pages", float64(pages))
	tr.ingestMetrics(out)
	if err := ingestMicro(out, b, smp); err != nil {
		return err
	}
	out.set("trace.overhead_frac", median(passSeconds(traced))/median(passSeconds(plain))-1)
	return tr.write()
}

// tracedIngest is IngestFiles with a span around every per-file
// Loader.IngestFile call: two workers pull files from one queue, as the
// loader's ingest-pool group does with Parallelism 2.
func tracedIngest(ctx context.Context, svc *service, b *dataloader.Binding, smp sample, tr *tracer) (dataloader.IngestStats, error) {
	root := tr.begin(spanPass, noParent)
	defer tr.end(root)
	l := svc.loader()
	files := make(chan string)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    dataloader.IngestStats
		firstErr error
	)
	for w := 0; w < ranks; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range files {
				sp := tr.begin(spanIngestFile, root)
				st, err := l.IngestFile(ctx, svc.dataset, b, p)
				tr.end(sp)
				mu.Lock()
				total.Files += st.Files
				total.Events += st.Events
				total.Products += st.Products
				total.Rows += st.Rows
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("ingest %s: %w", p, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, p := range smp.paths {
		files <- p
	}
	close(files)
	wg.Wait()
	return total, firstErr
}

// ---- read workloads --------------------------------------------------

// readPass runs one full pass over the ingested dataset and checks its
// output against the reference; a wrong output is returned as an error.
// tr is nil on untraced passes.
type readPass func(ctx context.Context, svc *service, smp sample, ref reference, tr *tracer) (passResult, error)

type passResult struct {
	slices int
	scan   core.ScanStats // pushdown accounting (scan only)
	pep    core.PEPStats
}

// runRead measures a read workload over a service set up by ingesting the
// sample; columnar registers nova.Slice for the page layout first.
func runRead(b backend, columnar bool, pass readPass) workloadFunc {
	return func(ctx context.Context, opt options, dir string, out *outcome) error {
		if columnar {
			if _, err := serde.RegisterColumnar([]nova.Slice{}); err != nil {
				return err
			}
		}
		setup, smp, svc, err := setUp(dir, opt.seed, opt.trace, func(rep int, smp sample) (*service, error) {
			svc, err := deploy(ctx, b, filepath.Join(dir, fmt.Sprintf("db-%d", rep)))
			if err != nil {
				return nil, err
			}
			st, err := svc.ingest(ctx, smp)
			if err == nil && st.Events != smp.events {
				err = fmt.Errorf("ingested %d events, generated %d", st.Events, smp.events)
			}
			if err != nil {
				svc.close()
				return nil, fmt.Errorf("ingest: %w", err)
			}
			return svc, nil
		})
		if err != nil {
			return err
		}
		defer svc.close()
		ref, err := buildReference(smp, opt.seed)
		if err != nil {
			return err
		}
		rows, pages, err := svc.layout(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("layout: %d row products, %d columnar page keys, %d accepted slices expected\n", rows, pages, len(ref.selected))
		if (pages > 0) != columnar {
			return fmt.Errorf("dataset holds %d columnar page keys, columnar layout %v", pages, columnar)
		}

		var (
			reg     deltas
			results []passResult
			tr      *tracer
		)
		measured := func(i int) (timed, bool, error) {
			scraped := opt.trace && tr == nil
			var before scrape
			if scraped {
				before = takeScrape(svc)
			}
			start := time.Now()
			res, err := pass(ctx, svc, smp, ref, tr)
			t := timed{seconds: time.Since(start).Seconds(), slices: res.slices}
			out.attempted++
			if err != nil {
				out.fail(1, "pass %d: %v", i, err)
				return t, false, nil
			}
			if scraped {
				reg.add(before, takeScrape(svc))
			}
			if tr != nil {
				results = append(results, res)
			}
			return t, true, nil
		}

		if !opt.trace {
			// An untimed pass first (numbered -1, and checked like the
			// others) warms the block cache, the page cache and the heap.
			if _, _, err := measured(-1); err != nil {
				return err
			}
			if err := resetPeakRSS(); err != nil {
				return err
			}
			m0 := mallocs()
			ts, err := repeat(opt.seconds, measured)
			if err != nil {
				return err
			}
			examined := 0
			for _, t := range ts {
				examined += t.slices
			}
			out.set("setup_s", setup)
			endToEnd(out, ts, smp.events, smp.slices)
			out.set("allocs_per_slice", float64(mallocs()-m0)/float64(examined))
			return setPeakRSS(out)
		}

		plain, err := repeat(opt.seconds/2, measured)
		if err != nil {
			return err
		}
		// A traced selection records three spans per event, so it runs
		// minPasses passes, which give hundreds of thousands of Event.Load
		// samples; a scan records one span per matching event and runs
		// for the rest of the time.
		traceSeconds := 0.0
		if columnar {
			traceSeconds = opt.seconds / 2
		}
		tr = newTracer(opt)
		traced, err := repeat(traceSeconds, measured)
		if err != nil {
			return err
		}
		reg.layerMetrics(out, len(plain), smp.slices)
		out.set("core.product_rows", float64(rows))
		out.set("core.product_pages", float64(pages))
		if b.store == "lsm" {
			disk, err := dirBytes(svc.dir)
			if err != nil {
				return err
			}
			out.set("yokan.lsm.disk_bytes_per_input_byte", float64(disk)/float64(smp.bytes))
		}
		if columnar {
			tr.scanMetrics(out, results)
		} else {
			tr.selectMetrics(out, results)
			if err := selectMicro(out, smp, median(rawSeconds(plain))); err != nil {
				return err
			}
		}
		out.set("trace.overhead_frac", median(passSeconds(traced))/median(passSeconds(plain))-1)
		return tr.write()
	}
}

// selectPass is the paper's selection: workflow.Run when untraced; traced,
// the same ParallelEventProcessor pass with spans around the rank, the
// per-event callback, Event.Load and the selection.
func selectPass(ctx context.Context, svc *service, smp sample, ref reference, tr *tracer) (passResult, error) {
	var (
		res      passResult
		selected []nova.SliceRef
	)
	if tr == nil {
		wr, err := workflow.Run(ctx, svc.ds, workflow.Config{Dataset: datasetPath, Label: label, Ranks: ranks})
		if err != nil {
			return res, err
		}
		res.slices, res.pep, selected = wr.TotalSlices, wr.Stats, wr.Selected
	} else {
		var err error
		if res, selected, err = tracedSelect(ctx, svc, tr); err != nil {
			return res, err
		}
	}
	if res.slices != smp.slices {
		return res, fmt.Errorf("selection examined %d slices, sample has %d", res.slices, smp.slices)
	}
	if !slices.Equal(selected, ref.selected) {
		return res, fmt.Errorf("selection accepted %d slices that differ from the %d of the file-based reference", len(selected), len(ref.selected))
	}
	return res, nil
}

func tracedSelect(ctx context.Context, svc *service, tr *tracer) (passResult, []nova.SliceRef, error) {
	root := tr.begin(spanPass, noParent)
	defer tr.end(root)
	opts := core.PEPOptions{Prefetch: []core.ProductSelector{core.SelectorFor(label, []nova.Slice{})}}
	var (
		mu       sync.Mutex
		res      passResult
		selected []nova.SliceRef
		firstErr error
	)
	mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		var local []nova.SliceRef
		n := 0
		rank := tr.begin(spanRank, root)
		st, err := svc.ds.ProcessEvents(ctx, c, svc.dataset, opts, func(ev *core.Event) error {
			cb := tr.begin(spanCallback, rank)
			defer tr.end(cb)
			var slices []nova.Slice
			ld := tr.begin(spanLoad, cb)
			err := ev.Load(ctx, label, &slices)
			tr.end(ld)
			if err != nil {
				return err
			}
			sel := tr.begin(spanSelect, cb)
			id := ev.ID()
			nev := nova.Event{Run: id.Run, SubRun: id.SubRun, Event: id.Event, Slices: slices}
			local = append(local, nova.SelectEvent(&nev)...)
			tr.end(sel)
			n += len(slices)
			return nil
		})
		tr.end(rank)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		selected = append(selected, local...)
		res.slices += n
		if c.Rank() == 0 {
			res.pep = st
		}
	})
	filebased.SortRefs(selected)
	return res, selected, firstErr
}

// scanPass sweeps the dataset with the selection pushed into the page
// scan and checks that the matched rows are exactly the reference's
// accepted slices, by event and by value of the shipped columns.
func scanPass(ctx context.Context, svc *service, smp sample, ref reference, tr *tracer) (passResult, error) {
	root := tr.begin(spanPass, noParent)
	defer tr.end(root)
	var res passResult
	cur := svc.dataset.Scan(ctx, label, []nova.Slice{}, nova.SelectionPredicate(), nova.SelectionColumns()...)
	var rows []nova.Slice
	matched := 0
	for {
		sp := tr.begin(spanScanNext, root)
		ok := cur.Next()
		tr.end(sp)
		if !ok {
			break
		}
		id := cur.EventID()
		if err := cur.Rows(&rows); err != nil {
			return res, err
		}
		want := ref.accepted[id]
		if len(rows) != len(want) {
			return res, fmt.Errorf("event %v: %d rows matched, reference accepts %d", id, len(rows), len(want))
		}
		for i := range rows {
			if rows[i].CVNe != want[i].CVNe || rows[i].CalE != want[i].CalE {
				return res, fmt.Errorf("event %v row %d: scan returned CVNe=%v CalE=%v, reference slice %d has %v %v",
					id, i, rows[i].CVNe, rows[i].CalE, want[i].SliceIdx, want[i].CVNe, want[i].CalE)
			}
		}
		matched += len(rows)
	}
	if err := cur.Err(); err != nil {
		return res, err
	}
	res.scan = cur.Stats()
	res.slices = int(res.scan.RowsScanned)
	if matched != len(ref.selected) {
		return res, fmt.Errorf("scan matched %d rows, reference accepts %d", matched, len(ref.selected))
	}
	if res.slices != smp.slices {
		return res, fmt.Errorf("scan examined %d rows, sample has %d slices", res.slices, smp.slices)
	}
	return res, nil
}
