package core

import (
	"context"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Locked allocs/op budgets of the core read path at RF=1 on an inproc
// deployment, measured immediately before the replica-read loops were
// collapsed into one primitive. A failover read that starts allocating
// per call (a closure escaping, a per-call map or interface) fails here.
const (
	budgetEventLoad        = 34 // Event.Load, row path, prefetch-cache miss (getFO)
	budgetScanPage         = 79 // one ScanCursor page RPC (scanFO)
	budgetListChildrenPage = 79 // one listChildNumbers page (listKeysFO)
)

// raceEnabled is set by alloc_race_test.go: the race runtime adds its own
// allocations, so the budgets are only enforced in normal builds.
var raceEnabled bool

func TestAllocBudgetCoreRead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without -race")
	}
	registerScanTrack(t)
	ds := newTestStore(t, bedrock.DeploySpec{Servers: 1})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "alloc/read")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ev *Event
	for s := uint64(0); s < 4; s++ {
		sr, err := run.CreateSubRun(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		for e := uint64(0); e < 4; e++ {
			if ev, err = sr.CreateEvent(ctx, e); err != nil {
				t.Fatal(err)
			}
			if err := ev.Store(ctx, "p", []particle{{X: 1, Y: 2, Z: 3}}); err != nil {
				t.Fatal(err)
			}
			if err := ev.Store(ctx, "trk", trackRows(s, e+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srKey, _ := ev.key.Parent()
	scanReq := yokan.ScanRequest{
		Group: pageGroupKey(srKey, "trk", registerScanTrack(t).TypeName()),
		Cols:  []uint32{0, 1},
		Hi:    ^uint64(0),
	}
	scanReplicas := ds.productReplicas(srKey)
	runReplicas := ds.subrunReplicas(run.key)

	var parts []particle
	load := testing.AllocsPerRun(100, func() {
		if err := ev.Load(ctx, "p", &parts); err != nil || len(parts) != 1 {
			t.Fatalf("load: %v %v", parts, err)
		}
	})
	scan := testing.AllocsPerRun(100, func() {
		res, err := ds.scanFO(ctx, scanReplicas, scanReq)
		if err != nil || len(res.Events) == 0 {
			t.Fatalf("scan page: %v", err)
		}
	})
	list := testing.AllocsPerRun(100, func() {
		nums, err := listChildNumbers(ctx, ds, runReplicas, run.key)
		if err != nil || len(nums) != 4 {
			t.Fatalf("list children: %v %v", nums, err)
		}
	})
	for _, c := range []struct {
		name   string
		got    float64
		budget int
	}{
		{"Event.Load (row path, cache miss)", load, budgetEventLoad},
		{"ScanCursor page", scan, budgetScanPage},
		{"listChildNumbers page", list, budgetListChildrenPage},
	} {
		t.Logf("%s: %.1f allocs/op (budget %d)", c.name, c.got, c.budget)
		if c.got > float64(c.budget) {
			t.Errorf("%s allocs/op = %.1f exceeds locked budget %d", c.name, c.got, c.budget)
		}
	}
}
