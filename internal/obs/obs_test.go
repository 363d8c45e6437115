package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSpanContextValidity(t *testing.T) {
	if (SpanContext{}).Valid() {
		t.Fatal("zero context reported valid")
	}
	if (SpanContext{Trace: 1}).Valid() || (SpanContext{Span: 1}).Valid() {
		t.Fatal("half-zero context reported valid")
	}
	if !(SpanContext{Trace: 1, Span: 2}).Valid() {
		t.Fatal("real context reported invalid")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", KindClient, SpanContext{}, "")
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	sp.End(nil) // must not panic
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if total, dropped := tr.Recorded(); total != 0 || dropped != 0 {
		t.Fatalf("nil tracer recorded (%d, %d)", total, dropped)
	}
}

func TestSpanParentLinkage(t *testing.T) {
	tr := NewTracer(16)
	client := tr.Start("put", KindClient, SpanContext{}, "tcp://srv")
	server := tr.Start("put", KindServer, client.Context(), "tcp://cli")
	server.End(nil)
	client.End(errors.New("late"))

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(spans))
	}
	srv, cli := spans[0], spans[1]
	if srv.Kind != KindServer || cli.Kind != KindClient {
		t.Fatalf("spans out of End order: %v %v", srv.Kind, cli.Kind)
	}
	if srv.Parent != cli.ID {
		t.Fatalf("server parent %x does not link client id %x", srv.Parent, cli.ID)
	}
	if srv.Trace != cli.Trace {
		t.Fatalf("trace ids diverged: %x vs %x", srv.Trace, cli.Trace)
	}
	if !cli.Err || srv.Err {
		t.Fatalf("error flags: client=%v server=%v", cli.Err, srv.Err)
	}
	if cli.Parent != 0 {
		t.Fatalf("root client span has parent %x", cli.Parent)
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		sp := tr.Start(fmt.Sprintf("op%d", i), KindInternal, SpanContext{}, "")
		sp.End(nil)
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("op%d", i+3); sp.Name != want {
			t.Fatalf("span %d = %q, want %q (oldest-first order)", i, sp.Name, want)
		}
	}
	total, dropped := tr.Recorded()
	if total != 7 || dropped != 3 {
		t.Fatalf("Recorded = (%d, %d), want (7, 3)", total, dropped)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Start("op", KindInternal, SpanContext{}, "").End(nil)
			}
		}()
	}
	wg.Wait()
	total, dropped := tr.Recorded()
	if total != 800 {
		t.Fatalf("recorded %d spans, want 800", total)
	}
	if dropped != 800-64 {
		t.Fatalf("dropped %d spans, want %d", dropped, 800-64)
	}
	if got := len(tr.Snapshot()); got != 64 {
		t.Fatalf("snapshot has %d spans, want 64", got)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	ctx := context.Background()
	if sc := SpanFromContext(ctx); sc.Valid() {
		t.Fatal("empty context carries a span")
	}
	sc := SpanContext{Trace: 7, Span: 9}
	ctx = ContextWithSpan(ctx, sc)
	if got := SpanFromContext(ctx); got != sc {
		t.Fatalf("round trip = %+v, want %+v", got, sc)
	}
	// Installing an invalid context is a no-op: the previous span stays.
	ctx2 := ContextWithSpan(ctx, SpanContext{})
	if got := SpanFromContext(ctx2); got != sc {
		t.Fatalf("invalid install clobbered span: %+v", got)
	}
}

func TestRegistryMergeAndMetadata(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("m", "help", TypeCounter, func() []Sample { return GaugeSample(1) }); err != nil {
		t.Fatal(err)
	}
	// Same name, same metadata: collectors merge.
	if err := r.Register("m", "help", TypeCounter, func() []Sample {
		return []Sample{OneSample(2, "shard", "b")}
	}); err != nil {
		t.Fatal(err)
	}
	// Different metadata: refused.
	if err := r.Register("m", "other", TypeCounter, func() []Sample { return nil }); err == nil {
		t.Fatal("metadata mismatch accepted")
	}
	if err := r.Register("m", "help", TypeGauge, func() []Sample { return nil }); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := r.Register("", "h", TypeCounter, func() []Sample { return nil }); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register("x", "h", "histogram", func() []Sample { return nil }); err == nil {
		t.Fatal("unknown type accepted")
	}

	fams := r.Snapshot()
	if len(fams) != 1 {
		t.Fatalf("snapshot has %d families, want 1", len(fams))
	}
	if len(fams[0].Samples) != 2 {
		t.Fatalf("family has %d samples, want 2 (merged collectors)", len(fams[0].Samples))
	}
	// Unlabelled sorts before labelled (empty fingerprint first).
	if fams[0].Samples[0].Value != 1 || fams[0].Samples[1].Value != 2 {
		t.Fatalf("samples out of fingerprint order: %+v", fams[0].Samples)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if err := r.Register("m", "h", TypeCounter, func() []Sample { return nil }); err != nil {
		t.Fatal(err)
	}
	r.MustRegister("m", "h", TypeCounter, func() []Sample { return nil })
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v", got)
	}
}

func TestOneSamplePanicsOnOddPairs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd key/value list did not panic")
		}
	}()
	OneSample(1, "key-without-value")
}

// TestPromGolden locks the exposition format byte-for-byte. Regenerate
// with: go test ./internal/obs -run TestPromGolden -update
func TestPromGolden(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(MetricRPCCalls, "RPC calls issued, by rpc and outcome.", TypeCounter,
		func() []Sample {
			return []Sample{
				OneSample(42, "rpc", "yokan:0#put"),
				OneSample(7, "rpc", "yokan:1#get_multi"),
			}
		})
	r.MustRegister(MetricAsyncDepth, "In-flight operations per pool.", TypeGauge,
		func() []Sample {
			return []Sample{OneSample(3, "pool", "rpc")}
		})
	r.MustRegister(MetricPrefetchGroups, "Per-database GetMulti groups fanned out by the Prefetcher.", TypeCounter,
		func() []Sample { return GaugeSample(16) })
	r.MustRegister("hepnos_test_escapes", `Help with backslash \ and
newline.`, TypeGauge, func() []Sample {
		return []Sample{
			OneSample(0.5, "path", `C:\data`, "note", "line1\nline2", "quote", `say "hi"`),
			{Value: 1e-9},
		}
	})
	// Two collectors merging into one family, like two yokan providers.
	r.MustRegister(MetricYokanOps, "Operations served.", TypeCounter,
		func() []Sample { return []Sample{OneSample(10, "provider", "1", "db", "events_0")} })
	r.MustRegister(MetricYokanOps, "Operations served.", TypeCounter,
		func() []Sample { return []Sample{OneSample(20, "provider", "2", "db", "events_1")} })

	got := PromText(r.Snapshot())
	golden := filepath.Join("testdata", "metrics.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Determinism: a second snapshot renders identically.
	if again := PromText(r.Snapshot()); again != got {
		t.Fatal("two snapshots of identical state rendered differently")
	}
}

func TestRenderReportSections(t *testing.T) {
	tr := NewTracer(8)
	client := tr.Start("yokan:0#get", KindClient, SpanContext{}, "tcp://srv")
	server := tr.Start("yokan:0#get", KindServer, client.Context(), "tcp://cli")
	server.End(nil)
	client.End(nil)
	spans := tr.Snapshot()

	sources := []Source{
		{
			Name: "client",
			Families: []Family{
				{Name: MetricRPCCalls, Type: TypeCounter, Samples: []Sample{OneSample(5, "rpc", "yokan:0#get")}},
				{Name: MetricRPCSeconds, Type: TypeCounter, Samples: []Sample{OneSample(0.25, "rpc", "yokan:0#get")}},
				{Name: MetricAsyncDepth, Type: TypeGauge, Samples: []Sample{OneSample(2, "pool", "rpc")}},
				{Name: MetricAsyncMaxDepth, Type: TypeGauge, Samples: []Sample{OneSample(6, "pool", "rpc")}},
				{Name: MetricRetries, Type: TypeCounter, Samples: []Sample{{Value: 3}}},
				{Name: MetricBreakerState, Type: TypeGauge, Samples: []Sample{OneSample(2, "target", "tcp://srv")}},
				{Name: MetricPrefetchLoads, Type: TypeCounter, Samples: []Sample{{Value: 100}}},
				{Name: MetricPrefetchGroups, Type: TypeCounter, Samples: []Sample{{Value: 25}}},
				{Name: MetricPrefetchDegrade, Type: TypeCounter, Samples: []Sample{{Value: 4}}},
			},
			Spans: []Span{spans[1]}, // the client span
		},
		{
			Name: "server",
			Families: []Family{
				{Name: MetricYokanOps, Type: TypeCounter, Samples: []Sample{OneSample(5, "db", "events_0", "op", "get")}},
				{Name: MetricYokanOpSeconds, Type: TypeCounter, Samples: []Sample{OneSample(0.05, "db", "events_0", "op", "get")}},
			},
			Spans: []Span{spans[0]}, // the server span
		},
	}
	report := RenderReport(sources)
	for _, want := range []string{
		"hottest RPCs", "yokan:0#get",
		"per-database service time", "db=events_0",
		"async pool saturation", "high-water=6",
		"resilience:", "retries=3", "state=open",
		"prefetcher:", "groups=25", "degraded=4",
		"linked client→server pairs=1",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}
