package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/dataloader"
	"github.com/hep-on-hpc/hepnos-go/internal/filebased"
	"github.com/hep-on-hpc/hepnos-go/internal/h5lite"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// ---- spans -----------------------------------------------------------

// Span names, recorded by the benchmark around each call into a layer.
const (
	spanPass       uint8 = iota // one measured pass
	spanRank                    // one rank's ProcessEvents call
	spanCallback                // the per-event callback PEP invokes
	spanLoad                    // Event.Load inside the callback
	spanSelect                  // nova.SelectEvent inside the callback
	spanIngestFile              // one Loader.IngestFile call
	spanScanNext                // one ScanCursor.Next call
)

var spanNames = []string{"pass", "core.pep.rank", "pep.callback", "core.load", "nova.select", "dataloader.ingest_file", "core.scan.next"}

type spanID int32

const noParent spanID = -1

type span struct {
	name       uint8
	parent     spanID
	start, end int64 // nanoseconds since the tracer started
}

// tracer keeps the run's spans in memory and writes them out once the run
// ends. A nil *tracer records nothing, so untraced passes share the code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	path  string
	spans []span
}

func newTracer(opt options) *tracer {
	return &tracer{
		t0:   time.Now(),
		run:  fmt.Sprintf("%s-seed%d-%d", opt.workload, opt.seed, time.Now().UnixNano()),
		path: filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", opt.workload, opt.seed)),
	}
}

func (t *tracer) begin(name uint8, parent spanID) spanID {
	if t == nil {
		return noParent
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) end(id spanID) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name, in
// seconds.
func (t *tracer) durations(name uint8) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// selfTimes returns, for every span named parent, its duration minus the
// time its child spans named child cover, in seconds.
func (t *tracer) selfTimes(parent, child uint8) []float64 {
	self := map[spanID]int64{}
	for i, s := range t.spans {
		if s.name == parent {
			self[spanID(i)] += s.end - s.start
		}
	}
	for _, s := range t.spans {
		if s.name == child {
			if _, ok := self[s.parent]; ok {
				self[s.parent] -= s.end - s.start
			}
		}
	}
	out := make([]float64, 0, len(self))
	for _, ns := range self {
		out = append(out, float64(ns)/1e9)
	}
	return out
}

// write stores the spans as gzip-compressed JSON lines, one per span,
// each carrying the run's shared identifier.
func (t *tracer) write() (err error) {
	f, err := os.Create(t.path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	var line []byte
	for i, s := range t.spans {
		line = append(line[:0], `{"run":"`...)
		line = append(line, t.run...)
		line = append(line, `","id":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.name]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), t.path)
	return nil
}

func (t *tracer) ingestMetrics(out *outcome) {
	files := t.durations(spanIngestFile)
	fmt.Printf("dataloader: %d file ingests traced\n", len(files))
	out.set("dataloader.ingest_file_ms_p50", 1e3*quantile(files, 0.50))
	out.set("dataloader.ingest_file_ms_p99", 1e3*quantile(files, 0.99))
}

func (t *tracer) selectMetrics(out *outcome, results []passResult) {
	loads := t.durations(spanLoad)
	fmt.Printf("core: %d Event.Load calls traced over %d passes\n", len(loads), len(results))
	out.set("core.load_us_p50", 1e6*quantile(loads, 0.50))
	out.set("core.load_us_p99", 1e6*quantile(loads, 0.99))
	var makespans []float64
	for _, r := range results {
		makespans = append(makespans, r.pep.Makespan)
	}
	out.set("core.pep_makespan_s", median(makespans))
	// Data-delivery wait: a rank's time in ProcessEvents outside its
	// callback, the median over ranks and passes.
	out.set("core.pep_wait_s", median(t.selfTimes(spanRank, spanCallback)))
}

func (t *tracer) scanMetrics(out *outcome, results []passResult) {
	nexts := t.durations(spanScanNext)
	fmt.Printf("core: %d ScanCursor.Next calls traced over %d passes\n", len(nexts), len(results))
	out.set("core.scan_next_us_p50", 1e6*quantile(nexts, 0.50))
	out.set("core.scan_next_us_p99", 1e6*quantile(nexts, 0.99))
	var requests, returned, rows float64
	for _, r := range results {
		requests += float64(r.scan.Requests)
		returned += float64(r.scan.ReturnedBytes)
		rows += float64(r.scan.RowsScanned)
	}
	out.set("core.scan.requests", requests/float64(len(results)))
	out.set("core.scan.returned_bytes_per_row", returned/rows)
}

// ---- registry deltas -------------------------------------------------

// scrape is one reading of the service's metrics registries, the same
// families a /metrics scrape exposes: the client's and every server's,
// keyed "side|family|labels".
type scrape map[string]float64

func takeScrape(svc *service) scrape {
	s := scrape{}
	add := func(side string, fams []obs.Family) {
		for _, f := range fams {
			for _, smp := range f.Samples {
				s[side+"|"+f.Name+"|"+labelKey(smp.Labels)] += smp.Value
			}
		}
	}
	add("client", svc.ds.Registry().Snapshot())
	for _, srv := range svc.dep.Servers {
		add("server", srv.Registry().Snapshot())
	}
	return s
}

func labelKey(labels map[string]string) string {
	kv := make([]string, 0, len(labels))
	for k, v := range labels {
		kv = append(kv, k+"="+v)
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}

// deltas accumulates counter growth over measured passes, and the
// highest reading of each gauge.
type deltas struct {
	grown, peak map[string]float64
}

func (d *deltas) add(before, after scrape) {
	if d.grown == nil {
		d.grown, d.peak = map[string]float64{}, map[string]float64{}
	}
	for k, v := range after {
		d.grown[k] += v - before[k]
		if v > d.peak[k] {
			d.peak[k] = v
		}
	}
}

// sum totals the samples of one family on one side whose labels include
// every given key=value pair.
func sum(m map[string]float64, side, family string, kv ...string) float64 {
	prefix := side + "|" + family + "|"
	total := 0.0
next:
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		labels := "," + k[len(prefix):] + ","
		for i := 0; i+1 < len(kv); i += 2 {
			if !strings.Contains(labels, ","+kv[i]+"="+kv[i+1]+",") {
				continue next
			}
		}
		total += v
	}
	return total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the registry-backed per-layer metrics from passes
// passes over slicesPerPass slices each. Counts are per pass.
func (d *deltas) layerMetrics(out *outcome, passes, slicesPerPass int) {
	n := float64(passes)
	slices := n * float64(slicesPerPass)
	for _, pool := range []string{"rpc", "prefetch", "ingest"} {
		out.set("asyncengine."+pool+".submitted", sum(d.grown, "client", obs.MetricAsyncSubmitted, "pool", pool)/n)
		out.set("asyncengine."+pool+".rejected", sum(d.grown, "client", obs.MetricAsyncRejected, "pool", pool)/n)
		out.set("asyncengine."+pool+".max_depth", sum(d.peak, "client", obs.MetricAsyncMaxDepth, "pool", pool))
	}
	calls := sum(d.grown, "client", obs.MetricRPCCalls)
	bytes := sum(d.grown, "client", "hepnos_fabric_bytes_sent_total") + sum(d.grown, "client", "hepnos_fabric_bytes_received_total")
	out.set("fabric.calls_per_slice", calls/slices)
	out.set("fabric.bytes_per_slice", bytes/slices)
	out.set("fabric.rpc_us_mean", 1e6*ratio(sum(d.grown, "client", obs.MetricRPCSeconds), calls))
	out.set("resilience.retries", sum(d.grown, "client", obs.MetricRetries)/n)
	for _, op := range []string{"put_multi", "get_multi", "scan", "list_keys"} {
		ops := sum(d.grown, "server", obs.MetricYokanOps, "op", op)
		out.set("yokan."+op+".ops", ops/n)
		out.set("yokan."+op+".us_mean", 1e6*ratio(sum(d.grown, "server", obs.MetricYokanOpSeconds, "op", op), ops))
	}
	out.set("yokan.scan.rows_scanned", sum(d.grown, "server", obs.MetricScanRowsScanned)/n)
	hits := sum(d.grown, "server", obs.MetricLSMCacheHits)
	misses := sum(d.grown, "server", obs.MetricLSMCacheMisses)
	out.set("yokan.lsm.cache_hits", hits/n)
	out.set("yokan.lsm.cache_misses", misses/n)
	out.set("yokan.lsm.cache_hit_ratio", ratio(hits, hits+misses))
	out.set("yokan.lsm.flushes", sum(d.grown, "server", obs.MetricLSMFlushes)/n)
	out.set("yokan.lsm.compactions", sum(d.grown, "server", obs.MetricLSMCompactions)/n)
}

// ---- single-layer passes ---------------------------------------------

// microReps repeats each single-layer pass; the median is reported.
const microReps = 3

// timeReps runs f microReps times and returns the median duration in
// seconds.
func timeReps(f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < microReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// ingestMicro times the loader's file read (Binding.ReadEvents) and the
// serde encode of every event's slices, each in a pass of its own.
func ingestMicro(out *outcome, b *dataloader.Binding, smp sample) error {
	var rows []any
	read, err := timeReps(func() error {
		rows = rows[:0]
		for _, p := range smp.paths {
			f, err := h5lite.Open(p)
			if err != nil {
				return err
			}
			evs, err := b.ReadEvents(f)
			f.Close()
			if err != nil {
				return err
			}
			for _, er := range evs {
				rows = append(rows, er.Rows)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("dataloader.read_ms_per_file", 1e3*read/float64(len(smp.paths)))
	var buf []byte
	marshal, err := timeReps(func() error {
		for _, r := range rows {
			if buf, err = serde.MarshalAppend(buf[:0], r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("serde.marshal_ns_per_slice", 1e9*marshal/float64(smp.slices))
	return nil
}

// selectMicro times the selection's compute floor and the row decode of
// every event's slices, each in a pass of its own, and the file-based
// workflow over the same files for the ROADMAP's gap ratio.
func selectMicro(out *outcome, smp sample, selectSeconds float64) error {
	var (
		events  []nova.Event
		encoded [][]byte
	)
	for _, p := range smp.paths {
		evs, err := nova.ReadFile(p)
		if err != nil {
			return err
		}
		for i := range evs {
			data, err := serde.Marshal(evs[i].Slices)
			if err != nil {
				return err
			}
			encoded = append(encoded, data)
		}
		events = append(events, evs...)
	}
	unmarshal, err := timeReps(func() error {
		for _, data := range encoded {
			var slices []nova.Slice
			if err := serde.Unmarshal(data, &slices); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("serde.unmarshal_ns_per_slice", 1e9*unmarshal/float64(smp.slices))
	// accepted keeps the selection's result live; the pass cannot fail.
	accepted := 0
	sel, _ := timeReps(func() error {
		accepted = 0
		for i := range events {
			accepted += len(nova.SelectEvent(&events[i]))
		}
		return nil
	})
	out.set("nova.select_ns_per_slice", 1e9*sel/float64(smp.slices))
	fb, err := timeReps(func() error {
		_, err := filebased.Run(filebased.Config{Files: smp.paths, Processes: ranks})
		return err
	})
	if err != nil {
		return err
	}
	out.set("filebased.slices_per_s", float64(smp.slices)/fb)
	out.set("select.gap_x", selectSeconds/fb)
	return nil
}

// ---- helpers ---------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's resident-set high-water mark (VmHWM) at the current footprint,
// so the peak reported afterwards is that of the measured phase. Set-up
// memory reaches it through the service it leaves behind.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// setPeakRSS reports the process's resident-set high-water mark (VmHWM),
// less the reference job's memory, which is resident throughout.
func setPeakRSS(out *outcome) error {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return fmt.Errorf("parse VmHWM: %w", err)
			}
			out.set("peak_rss_mb", (kb*1024-probeBytes)/(1<<20))
			return nil
		}
	}
	return fmt.Errorf("no VmHWM in /proc/self/status")
}

// dirBytes is the size of the files under dir. Files a background
// compaction deletes during the walk are skipped.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}
