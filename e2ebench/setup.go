package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/dataloader"
	"github.com/hep-on-hpc/hepnos-go/internal/filebased"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
)

// The shared sizing point: the paper's deployment shape (2 servers, each
// with 4 providers, 8 event and 8 product databases, QoS off) and a NOvA
// sample of about 64 files, 64k events and 265k slices. The client runs 2
// ranks or 2 loader workers, one per core of the 2-core host the bounds
// were measured on.
const (
	// sampleEvents sizes the sample by work rather than by file count:
	// files are added until they hold this many events, so every seed
	// gives the same amount of work while per-file sizes keep the
	// generator's heavy tail.
	sampleEvents      = 64000
	meanEventsPerFile = 1000
	filesPerSubRun    = 2
	servers           = 2
	ranks             = 2
	label             = "slices"
	datasetPath       = "bench/nova"
	// A run sets up from scratch at least setupReps times and for at
	// least setupTime; setup_s is the median of the set-up times scaled to
	// the nominal host speed, so neither one slow set-up nor the noise of
	// a short one moves it.
	setupReps = 3
	setupTime = 3 * time.Second
)

// backend is one storage/transport pairing of the deployment.
type backend struct{ scheme, store string }

var (
	inprocMap = backend{scheme: "inproc", store: "map"}
	// tcpLSM runs real sockets and an LSM tier whose 1 MiB memtables and
	// 4 MiB block cache are far below the ~46 MB the sample takes on disk,
	// so flushes, compactions and cache misses all happen.
	tcpLSM = backend{scheme: "tcp", store: "lsm"}
)

// sample is one generated NOvA file set.
type sample struct {
	paths  []string
	events int
	slices int
	bytes  int64 // total size of the files
}

// generate writes the seed's sample into dir.
func generate(dir string, seed uint64) (sample, error) {
	var s sample
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return s, err
	}
	gen := newGenerator(seed)
	for i := 0; s.events < sampleEvents; i++ {
		fd := gen.File(i)
		p := filepath.Join(dir, fmt.Sprintf("nova-%05d.h5l", i))
		if err := nova.WriteFile(p, fd); err != nil {
			return s, fmt.Errorf("write sample file %d: %w", i, err)
		}
		fi, err := os.Stat(p)
		if err != nil {
			return s, err
		}
		s.paths = append(s.paths, p)
		// An event without slices has no row in the file, so the file
		// holds, and every workflow sees, only events with slices.
		for _, ev := range fd.Events {
			if len(ev.Slices) > 0 {
				s.events++
			}
		}
		s.slices += fd.NumSlices()
		s.bytes += fi.Size()
	}
	return s, nil
}

func newGenerator(seed uint64) *nova.Generator {
	return nova.NewGenerator(nova.GenParams{
		Seed: seed, MeanEventsPerFile: meanEventsPerFile, FilesPerSubRun: filesPerSubRun,
	})
}

// service is one deployed HEPnOS instance with a connected client and the
// benchmark's dataset.
type service struct {
	dep     *bedrock.Deployment
	ds      *core.DataStore
	dataset *core.DataSet
	dir     string // storage root of an lsm backend
}

var deploySeq int

// deploy boots a service in this process; an lsm backend keeps its
// databases under dir.
func deploy(ctx context.Context, b backend, dir string) (*service, error) {
	deploySeq++
	spec := bedrock.DeploySpec{
		Servers:             servers,
		Scheme:              b.scheme,
		ProvidersPerServer:  4,
		EventDBsPerServer:   8,
		ProductDBsPerServer: 8,
		Backend:             b.store,
		NamePrefix:          fmt.Sprintf("e2ebench-%d", deploySeq),
	}
	if b.store == "lsm" {
		spec.PathBase = dir
		spec.Storage = &bedrock.StorageConfig{MemtableMB: 1, BlockCacheMB: 4}
	}
	dep, err := bedrock.Deploy(spec)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	s := &service{dep: dep, dir: dir}
	if s.ds, err = core.Connect(ctx, core.ClientConfig{Group: dep.Group}); err != nil {
		s.close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	if s.dataset, err = s.ds.CreateDataSet(ctx, datasetPath); err != nil {
		s.close()
		return nil, fmt.Errorf("create dataset: %w", err)
	}
	return s, nil
}

func (s *service) close() {
	if s.ds != nil {
		s.ds.Close()
	}
	s.dep.Shutdown()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// binding maps the sample's slice group onto nova.Slice.
func binding(smp sample) (*dataloader.Binding, error) {
	schemas, err := dataloader.InspectFile(smp.paths[0])
	if err != nil {
		return nil, err
	}
	return dataloader.Bind(nova.Slice{}, schemas[0])
}

func (s *service) loader() *dataloader.Loader {
	return &dataloader.Loader{DS: s.ds, Label: label, Parallelism: ranks}
}

// ingest loads the whole sample with the paper's data loader.
func (s *service) ingest(ctx context.Context, smp sample) (dataloader.IngestStats, error) {
	b, err := binding(smp)
	if err != nil {
		return dataloader.IngestStats{}, err
	}
	return s.loader().IngestFiles(ctx, s.dataset, b, smp.paths)
}

// eventCensus counts the event keys the service holds, from the
// providers' own database counts.
func (s *service) eventCensus(ctx context.Context) (int, error) {
	st, err := s.ds.ServiceStats(ctx)
	if err != nil {
		return 0, err
	}
	n := 0
	for name, c := range st.DBCounts {
		if strings.HasPrefix(name, bedrock.RoleEvents+"_") {
			n += int(c)
		}
	}
	return n, nil
}

// layout reports how the dataset's products are stored: row-path product
// keys and columnar page keys, from the keys-only census.
func (s *service) layout(ctx context.Context) (rows, pages uint64, err error) {
	counts, err := s.ds.ProductCounts(ctx)
	if err != nil {
		return 0, 0, err
	}
	for _, c := range counts {
		rows += c.Rows
		pages += c.Pages
	}
	return rows, pages, nil
}

// setUp runs the workload's set-up repeatedly (once when traced, as set-up
// time is then not reported) and returns the median scaled duration with the
// last sample and service, which the measured phase uses. Each repetition
// generates the sample into a fresh directory and builds a service with
// build; earlier repetitions are torn down first.
func setUp(dir string, seed uint64, traced bool, build func(rep int, smp sample) (*service, error)) (float64, sample, *service, error) {
	var (
		times []float64
		smp   sample
		svc   *service
	)
	begin := time.Now()
	br := host.bracket()
	more := func(rep int) bool {
		if traced {
			return rep < 1
		}
		return rep < setupReps || time.Since(begin) < setupTime
	}
	for rep := 0; more(rep); rep++ {
		if svc != nil {
			svc.close()
			svc = nil
			runtime.GC() // each repetition starts from the same heap
		}
		sampleDir := filepath.Join(dir, "sample")
		if err := os.RemoveAll(sampleDir); err != nil {
			return 0, smp, nil, err
		}
		start := time.Now()
		var err error
		if smp, err = generate(sampleDir, seed); err != nil {
			return 0, smp, nil, err
		}
		if svc, err = build(rep, smp); err != nil {
			return 0, smp, nil, err
		}
		raw := time.Since(start).Seconds()
		times = append(times, raw*br.close())
	}
	fmt.Printf("set-up: %d repetitions, scaled %s s, reference job %s s\n", len(times), fmtList(times), fmtList(br.ref))
	return median(times), smp, svc, nil
}

// reference is the expected output of the selection for one sample,
// computed by the file-based workflow.
type reference struct {
	selected []nova.SliceRef
	// accepted holds the accepted slices of each event, in slice order,
	// for comparing the values a pushdown scan returns.
	accepted map[core.EventID][]nova.Slice
}

func buildReference(smp sample, seed uint64) (reference, error) {
	res, err := filebased.Run(filebased.Config{Files: smp.paths, Processes: ranks})
	if err != nil {
		return reference{}, fmt.Errorf("file-based reference: %w", err)
	}
	if res.TotalSlices != smp.slices {
		return reference{}, fmt.Errorf("file-based reference saw %d slices, sample has %d", res.TotalSlices, smp.slices)
	}
	ref := reference{selected: res.Selected, accepted: map[core.EventID][]nova.Slice{}}
	want := map[nova.SliceRef]bool{}
	for _, r := range res.Selected {
		want[r] = true
	}
	gen := newGenerator(seed)
	n := 0
	for i := range smp.paths {
		fd := gen.File(i)
		for _, ev := range fd.Events {
			for _, sl := range ev.Slices {
				if want[nova.SliceRef{Run: ev.Run, SubRun: ev.SubRun, Event: ev.Event, Slice: sl.SliceIdx}] {
					id := core.EventID{Run: ev.Run, SubRun: ev.SubRun, Event: ev.Event}
					ref.accepted[id] = append(ref.accepted[id], sl)
					n++
				}
			}
		}
	}
	if n != len(res.Selected) {
		return reference{}, fmt.Errorf("reference lists %d accepted slices, the generator holds %d of them", len(res.Selected), n)
	}
	if n == 0 {
		return reference{}, fmt.Errorf("the sample has no accepted slice to check against")
	}
	return ref, nil
}
