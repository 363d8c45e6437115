// Command e2ebench is the repository's end-to-end benchmark: the paper's
// NOvA pipeline, ingesting generated files into HEPnOS and running the
// CAFAna candidate selection over them, driven from outside the program
// through the service's own exported calls.
//
//	bash e2ebench/run.sh --workload select --seed 1 --seconds 10 --trace 0
//
// Workloads (one per process, because serde.RegisterColumnar is
// process-global and cannot be undone):
//
//   - ingest: dataloader.Loader.IngestFiles into a fresh tcp+lsm service.
//   - select: workflow.Run (2 ranks, prefetch) over inproc+map, row layout.
//   - scan: DataSet.Scan with the selection predicate pushed down, over
//     inproc+map with nova.Slice registered columnar.
//   - select_lsm: the select pass over tcp+lsm with a working set larger
//     than the block cache.
//
// Times behind the end-to-end metrics (passes and set-ups) are scaled to a
// nominal host speed by a reference job run between them (hostspeed.go);
// the raw times are printed alongside.
//
// With --trace 0 the run measures the end-to-end metrics with tracing off;
// with --trace 1 it measures the per-layer metrics: benchmark-owned spans
// around each call into a layer, plus before/after deltas of the service's
// own metrics registries. Metric names and units come from BENCHMARK.json,
// and layers.json records which end-to-end metric each per-layer metric
// should move, on which workload. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// specFile is the benchmark definition, read from the checkout root.
const specFile = "BENCHMARK.json"

// runLimit bounds a whole run; a wedged pass must fail the run, not hang it.
const runLimit = 170 * time.Second

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

//go:embed layers.json
var layersJSON []byte

// layerEntry is one per-layer metric of layers.json: the layer it
// measures, the workloads that exercise it, and the end-to-end metric it
// is expected to move there.
type layerEntry struct {
	Metric    string   `json:"metric"`
	Layer     string   `json:"layer"`
	Workloads []string `json:"workloads"`
	Moves     string   `json:"moves"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what one workload run produced: measured values by metric
// name plus the operation accounting.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// fail records n failed operations and says why on standard error.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(os.Stderr, "e2ebench: FAIL: "+format+"\n", args...)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	var (
		opt   options
		trace int
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run: ingest, select, scan or select_lsm")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated NOvA sample")
	flag.Float64Var(&opt.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build/e2ebench", "scratch directory for samples, storage and spans")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = trace == 1
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	spec, layers, err := loadSpec()
	if err != nil {
		return err
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == opt.workload
	}
	if !known || workloads[opt.workload] == nil {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(opt.workdir, opt.workload+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if host, err = newHostProbe(); err != nil {
		return err
	}
	defer host.close()

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded its time limit")
		os.RemoveAll(dir)
		os.Exit(1)
	})
	defer watchdog.Stop()

	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	out := &outcome{values: map[string]float64{}}
	if err := workloads[opt.workload](ctx, opt, dir, out); err != nil {
		return err
	}
	if out.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}

	metrics := spec.EndToEnd
	if opt.trace {
		metrics = spec.PerLayer
		if err := checkLayerCoverage(layers, opt.workload, out.values); err != nil {
			return err
		}
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range metrics {
		v, ok := out.values[m.Name]
		if !ok && !opt.trace {
			return fmt.Errorf("workload %s did not measure %s", opt.workload, m.Name)
		}
		// A per-layer metric of a layer this workload does not exercise
		// reads 0 (layers.json lists where each one is measured).
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-40s %16s %s\n", m.Name, strconv.FormatFloat(v, 'g', 6, 64), m.Unit)
	}
	fmt.Printf("%-40s %16s (failed %d of %d attempted)\n", "failed_frac",
		strconv.FormatFloat(float64(out.failed)/float64(out.attempted), 'g', 6, 64), out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// loadSpec reads BENCHMARK.json and the embedded layer map, and checks
// that both name the same per-layer metrics.
func loadSpec() (benchSpec, []layerEntry, error) {
	var spec benchSpec
	data, err := os.ReadFile(specFile)
	if err != nil {
		return spec, nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, nil, fmt.Errorf("parse %s: %w", specFile, err)
	}
	var layers []layerEntry
	if err := json.Unmarshal(layersJSON, &layers); err != nil {
		return spec, nil, fmt.Errorf("parse layers.json: %w", err)
	}
	var inSpec, inMap []string
	for _, m := range spec.PerLayer {
		inSpec = append(inSpec, m.Name)
	}
	for _, l := range layers {
		inMap = append(inMap, l.Metric)
	}
	sort.Strings(inSpec)
	sort.Strings(inMap)
	if strings.Join(inSpec, ",") != strings.Join(inMap, ",") {
		return spec, nil, fmt.Errorf("per-layer metrics of %s and layers.json differ", specFile)
	}
	return spec, layers, nil
}

// checkLayerCoverage holds the layer map to what the run measured: a
// traced run must produce exactly the per-layer metrics layers.json lists
// for its workload.
func checkLayerCoverage(layers []layerEntry, workload string, values map[string]float64) error {
	want := map[string]bool{}
	for _, l := range layers {
		for _, w := range l.Workloads {
			if w == workload {
				want[l.Metric] = true
			}
		}
	}
	for name := range values {
		if !want[name] {
			return fmt.Errorf("workload %s measured %s, which layers.json does not list for it", workload, name)
		}
	}
	for name := range want {
		if _, ok := values[name]; !ok {
			return fmt.Errorf("workload %s did not measure %s, which layers.json lists for it", workload, name)
		}
	}
	return nil
}
