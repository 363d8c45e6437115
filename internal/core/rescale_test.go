package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
)

// deployAndConnect boots a service and connects with the given placement.
func deployAndConnect(t *testing.T, servers int, prefix string, placement Placement) (*DataStore, bedrock.GroupFile) {
	return deployAtEpoch(t, servers, prefix, placement, 0)
}

// deployAtEpoch is deployAndConnect with the group's membership epoch set
// before connecting (0 keeps the deployment's own).
func deployAtEpoch(t *testing.T, servers int, prefix string, placement Placement, epoch uint64) (*DataStore, bedrock.GroupFile) {
	t.Helper()
	d, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers:             servers,
		ProvidersPerServer:  2,
		EventDBsPerServer:   4,
		ProductDBsPerServer: 4,
		NamePrefix:          prefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	if epoch != 0 {
		d.Group.Epoch = epoch
	}
	ds, err := Connect(context.Background(), ClientConfig{Group: d.Group, Placement: placement})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	return ds, d.Group
}

// populate writes a mixed hierarchy with products on several levels.
func populate(t *testing.T, ds *DataStore) (events int) {
	t.Helper()
	ctx := context.Background()
	d, err := ds.CreateDataSet(ctx, "resc/data")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store(ctx, "calib", particle{X: 9}); err != nil {
		t.Fatal(err)
	}
	wb := ds.NewWriteBatch()
	for r := uint64(1); r <= 2; r++ {
		run, err := wb.CreateRun(ctx, d, r)
		if err != nil {
			t.Fatal(err)
		}
		for s := uint64(0); s < 4; s++ {
			sr, err := wb.CreateSubRun(ctx, run, s)
			if err != nil {
				t.Fatal(err)
			}
			for e := uint64(0); e < 15; e++ {
				ev, err := wb.CreateEvent(ctx, sr, e)
				if err != nil {
					t.Fatal(err)
				}
				if err := wb.Store(ctx, ev, "p", []particle{{X: float32(r), Y: float32(s), Z: float32(e)}}); err != nil {
					t.Fatal(err)
				}
				events++
			}
		}
	}
	if err := wb.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return events
}

// verifyAll checks the full hierarchy and products through a datastore view.
func verifyAll(t *testing.T, ds *DataStore, wantEvents int) {
	t.Helper()
	ctx := context.Background()
	d, err := ds.OpenDataSet(ctx, "resc/data")
	if err != nil {
		t.Fatal(err)
	}
	var calib particle
	if err := d.Load(ctx, "calib", &calib); err != nil || calib.X != 9 {
		t.Fatalf("dataset product after rescale: %v %v", calib, err)
	}
	runs, err := d.Runs(ctx)
	if err != nil || !reflect.DeepEqual(runs, []uint64{1, 2}) {
		t.Fatalf("runs = %v %v", runs, err)
	}
	got := 0
	for _, rn := range runs {
		run, err := d.Run(ctx, rn)
		if err != nil {
			t.Fatal(err)
		}
		subs, err := run.SubRuns(ctx)
		if err != nil || len(subs) != 4 {
			t.Fatalf("subruns = %v %v", subs, err)
		}
		for _, sn := range subs {
			sr, err := run.SubRun(ctx, sn)
			if err != nil {
				t.Fatal(err)
			}
			events, err := sr.Events(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, en := range events {
				ev, err := sr.Event(ctx, en)
				if err != nil {
					t.Fatal(err)
				}
				var ps []particle
				if err := ev.Load(ctx, "p", &ps); err != nil {
					t.Fatalf("event %d/%d/%d product: %v", rn, sn, en, err)
				}
				if len(ps) != 1 || ps[0].Z != float32(en) {
					t.Fatalf("event %d product corrupted: %v", en, ps)
				}
				got++
			}
		}
	}
	if got != wantEvents {
		t.Fatalf("found %d events after rescale, want %d", got, wantEvents)
	}
}

func testRescale(t *testing.T, placement Placement) {
	// Old view: a 2-server service holding the data. New view: a larger
	// 3-server service. Rescale migrates every key whose home changes;
	// between disjoint deployments that is all of them, which exercises
	// the full scan/probe/copy path for all five roles. Rescale is a live
	// migration, whose target must carry a strictly newer membership
	// epoch, so the new deployment's group is bumped before connecting.
	oldDS, _ := deployAndConnect(t, 2, fmt.Sprintf("resc-old-%s", placement), placement)
	n := populate(t, oldDS)
	newDS, _ := deployAtEpoch(t, 3, fmt.Sprintf("resc-new-%s", placement), placement, oldDS.GroupEpoch()+1)

	st, err := Rescale(context.Background(), oldDS, newDS)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalScanned() == 0 || st.TotalCopied() == 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, role := range []string{"datasets", "runs", "subruns", "events", "products"} {
		if st.Scanned[role] == 0 {
			t.Fatalf("role %s was not scanned: %+v", role, st)
		}
	}
	verifyAll(t, newDS, n)
}

func TestRescaleModulo(t *testing.T) { testRescale(t, PlacementModulo) }
func TestRescaleJump(t *testing.T)   { testRescale(t, PlacementJump) }

func TestRescaleRejectsMixedPlacement(t *testing.T) {
	a, _ := deployAndConnect(t, 1, "resc-mix-a", PlacementModulo)
	b, _ := deployAndConnect(t, 1, "resc-mix-b", PlacementJump)
	if _, err := Rescale(context.Background(), a, b); err == nil {
		t.Fatal("mixed placement should be rejected")
	}
}

// TestRescaleMovedFraction quantifies the Pufferscale trade: growing the
// database set under jump placement moves far fewer keys than under
// modulo. We simulate the *within-service* grow by comparing placement
// decisions directly (the live-migration path is covered above).
func TestRescaleMovedFraction(t *testing.T) {
	countMoved := func(p Placement, oldN, newN, keys int) int {
		oldPl := p.placer(oldN)
		newPl := p.placer(newN)
		moved := 0
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("subrun-key-%d", i))
			if oldPl.Place(k) != newPl.Place(k) {
				moved++
			}
		}
		return moved
	}
	const keys = 20000
	jump := countMoved(PlacementJump, 16, 24, keys)
	modulo := countMoved(PlacementModulo, 16, 24, keys)
	// Jump moves exactly the displaced fraction, 1 - 16/24 ≈ 33%. Modulo
	// keeps a key only when hash%48 < 16, so it moves ≈ 67% (and close to
	// 100% for coprime set sizes).
	if frac := float64(jump) / keys; frac > 0.40 {
		t.Fatalf("jump moved %.0f%%, want ≈33%%", 100*frac)
	}
	if frac := float64(modulo) / keys; frac < 0.55 {
		t.Fatalf("modulo moved %.0f%%, want ≈67%%", 100*frac)
	}
	if jump*2 > modulo {
		t.Fatalf("jump (%d) should move far fewer keys than modulo (%d)", jump, modulo)
	}
}

func TestPlacementStrategiesAreIsolated(t *testing.T) {
	// The same service read with a different placement strategy would
	// look in the wrong databases — verify the strategies really differ
	// and that a consistent client sees its own writes.
	ds, group := deployAndConnect(t, 2, "placement-iso", PlacementJump)
	ctx := context.Background()
	if _, err := ds.CreateDataSet(ctx, "jump/only"); err != nil {
		t.Fatal(err)
	}
	dsJump2, err := Connect(ctx, ClientConfig{Group: group, Placement: PlacementJump})
	if err != nil {
		t.Fatal(err)
	}
	defer dsJump2.Close()
	if _, err := dsJump2.OpenDataSet(ctx, "jump/only"); err != nil {
		t.Fatal("same-strategy client must see the dataset:", err)
	}
}
