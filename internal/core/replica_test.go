package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/health"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// newTestCluster is newTestStore plus the deployment and the fully
// specified spec, so replication tests can kill individual servers and
// reboot them with bedrock.BuildConfigs. The background heartbeat is off:
// tests drive health deterministically via ProbeOnce / the tracker.
func newTestCluster(t testing.TB, spec bedrock.DeploySpec) (*DataStore, *bedrock.Deployment, bedrock.DeploySpec) {
	t.Helper()
	if spec.NamePrefix == "" {
		spec.NamePrefix = fmt.Sprintf("repltest-%d", deploySeq.Add(1))
	}
	if spec.ProvidersPerServer == 0 {
		spec.ProvidersPerServer = 2
	}
	if spec.EventDBsPerServer == 0 {
		spec.EventDBsPerServer = 4
	}
	if spec.ProductDBsPerServer == 0 {
		spec.ProductDBsPerServer = 4
	}
	d, err := bedrock.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	ds, err := Connect(context.Background(), ClientConfig{Group: d.Group, DisableHeartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ds.Close)
	return ds, d, spec
}

// markDead drives a target through Alive → Suspect → Dead with direct
// tracker evidence (SuspectAfter=1 + DeadAfter=3 consecutive failures).
func markDead(ds *DataStore, addr string) {
	for i := 0; i < 4; i++ {
		ds.Health().ReportFailure(addr)
	}
}

func TestReplicaPlacementDistinctServers(t *testing.T) {
	ds, _, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	if ds.RF() != 2 {
		t.Fatalf("RF = %d, want 2 (from the group file)", ds.RF())
	}
	ctx := context.Background()
	d, err := ds.CreateDataSet(ctx, "repl/place")
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, set []yokan.DBHandle, legacy yokan.DBHandle) {
		t.Helper()
		if len(set) != 2 {
			t.Fatalf("%s: %d replicas, want 2", what, len(set))
		}
		if set[0] != legacy {
			t.Fatalf("%s: primary %s differs from single-home placement %s", what, set[0], legacy)
		}
		if set[0].Addr == set[1].Addr {
			t.Fatalf("%s: both replicas on %s", what, set[0].Addr)
		}
	}
	v := ds.v()
	check("runs", ds.runReplicas(d.key), placeDB(ds, v.RunDBs, d.key.Bytes()))
	for r := uint64(0); r < 8; r++ {
		runKey := d.key.Child(r)
		check("subruns", ds.subrunReplicas(runKey), placeDB(ds, v.SubrunDBs, runKey.Bytes()))
		for s := uint64(0); s < 8; s++ {
			srKey := runKey.Child(s)
			check("events", ds.eventReplicas(srKey), placeDB(ds, v.EventDBs, srKey.Bytes()))
			check("products", ds.productReplicas(srKey.Child(s)), placeDB(ds, v.ProductDBs, srKey.Child(s).Bytes()))
		}
	}
}

func TestReplicationOffByDefault(t *testing.T) {
	ds, _, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 2})
	if ds.RF() != 1 {
		t.Fatalf("RF = %d, want 1 without a deployment RF", ds.RF())
	}
	set := ds.eventReplicas(keys.ForDataSet([keys.UUIDLen]byte{1}).Child(1).Child(2))
	if len(set) != 1 {
		t.Fatalf("rf=1 replica set has %d members", len(set))
	}
}

func TestReadOrderHealthGating(t *testing.T) {
	ds, _, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	replicas := ds.eventReplicas(keys.ForDataSet([keys.UUIDLen]byte{9}).Child(7).Child(3))
	primary := string(replicas[0].Addr)
	h := ds.Health()

	if got := ds.readOrder(replicas); got[0] != replicas[0] {
		t.Fatal("healthy primary not preferred")
	}
	markDead(ds, primary)
	if h.StateOf(primary) != health.Dead {
		t.Fatalf("state = %v, want dead", h.StateOf(primary))
	}
	order := ds.readOrder(replicas)
	if order[0] != replicas[1] || order[len(order)-1] != replicas[0] {
		t.Fatalf("dead primary not demoted: %v", order)
	}
	// A rejoined server is reachable but possibly missing writes: still
	// ranked behind the fully alive replica until anti-entropy finishes.
	h.ReportSuccess(primary)
	if h.StateOf(primary) != health.Rejoined {
		t.Fatalf("state = %v, want rejoined", h.StateOf(primary))
	}
	order = ds.readOrder(replicas)
	if order[0] != replicas[1] || order[1] != replicas[0] {
		t.Fatalf("rejoined primary mis-ranked: %v", order)
	}
	h.MarkResynced(primary)
	if got := ds.readOrder(replicas); got[0] != replicas[0] {
		t.Fatal("resynced primary not restored as read owner")
	}
}

// pickSubRunOn returns a subrun number under runKey whose event replica set
// includes (or, with onPrimary, is led by) a database on addr. Placement is
// deterministic, so the scan is too.
func pickSubRunOn(t *testing.T, ds *DataStore, runKey keys.ContainerKey, addr fabric.Address, onPrimary bool) uint64 {
	t.Helper()
	for s := uint64(0); s < 256; s++ {
		set := ds.eventReplicas(runKey.Child(s))
		if onPrimary {
			if set[0].Addr == addr {
				return s
			}
			continue
		}
		for _, db := range set {
			if db.Addr == addr {
				return s
			}
		}
	}
	t.Fatalf("no subrun with an event replica on %s in 256 candidates", addr)
	return 0
}

func TestFailoverReadsSurviveServerDeath(t *testing.T) {
	ds, d, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "repl/failover")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	victimAddr := fabric.Address(d.Group.Servers[victim].Address)
	// Choose a subrun whose events are *led* by the victim, so reads must
	// fail over, and store a product per event.
	srNum := pickSubRunOn(t, ds, run.key, victimAddr, true)
	sr, err := run.CreateSubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	want := []particle{{1, 2, 3}}
	for e := uint64(0); e < 8; e++ {
		ev, err := sr.CreateEvent(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Store(ctx, "parts", want); err != nil {
			t.Fatal(err)
		}
	}

	d.Servers[victim].Shutdown()
	// The heartbeat notices the death: each ProbeOnce round adds one
	// failure; four rounds reach Dead while the survivors stay Alive.
	for i := 0; i < 4; i++ {
		ds.ProbeOnce(ctx)
	}
	if got := ds.Health().StateOf(string(victimAddr)); got != health.Dead {
		t.Fatalf("victim state after probes = %v, want dead", got)
	}
	for _, srv := range []int{0, 2} {
		if got := ds.Health().StateOf(d.Group.Servers[srv].Address); got != health.Alive {
			t.Fatalf("survivor %d state = %v", srv, got)
		}
	}

	// Every read below targets data whose primary died: the replica must
	// serve it transparently.
	before := ds.failoverReads.Load()
	sr2, err := run.SubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sr2.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 {
		t.Fatalf("listed %d events, want 8", len(evs))
	}
	for _, n := range evs {
		ev, err := sr2.Event(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		var got []particle
		if err := ev.Load(ctx, "parts", &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("product mismatch: %v", got)
		}
	}
	if ds.failoverReads.Load() == before {
		t.Fatal("failover counter did not move for replica-served reads")
	}
}

func TestReplicatedWritesTolerateOneDeadServer(t *testing.T) {
	ds, d, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "repl/tolerate")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	victimAddr := fabric.Address(d.Group.Servers[victim].Address)
	srNum := pickSubRunOn(t, ds, run.key, victimAddr, false)

	d.Servers[victim].Shutdown()
	markDead(ds, string(victimAddr))

	// Writes whose replica set includes the dead server succeed on the
	// surviving copy; the dropped copies are counted for resync.
	drops := ds.replicaDrops.Load()
	sr, err := run.CreateSubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	want := []particle{{4, 5, 6}}
	for e := uint64(0); e < 4; e++ {
		ev, err := sr.CreateEvent(ctx, e)
		if err != nil {
			t.Fatalf("create event %d with one server down: %v", e, err)
		}
		if err := ev.Store(ctx, "parts", want); err != nil {
			t.Fatalf("store with one server down: %v", err)
		}
	}
	if ds.replicaDrops.Load() == drops {
		t.Fatal("no replica drops recorded though the set includes a dead server")
	}
	// And the data written during the outage reads back.
	evs, err := sr.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("listed %d outage-written events, want 4", len(evs))
	}
	ev0, err := sr.Event(ctx, evs[0])
	if err != nil {
		t.Fatal(err)
	}
	var got []particle
	if err := ev0.Load(ctx, "parts", &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outage-written product mismatch: %v", got)
	}
}

func TestWritesFailWhenLossIsPossible(t *testing.T) {
	// With rf servers unusable a key may have no surviving copy, so the
	// tolerant-drop rule must stop applying and writes must error.
	ds, d, _ := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "repl/guard")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := run.CreateSubRun(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []int{1, 2} {
		d.Servers[victim].Shutdown()
		markDead(ds, d.Group.Servers[victim].Address)
	}
	// Every event replica set spans 2 of the 3 servers, so it includes at
	// least one dead one; with UnusableCount == rf the drop is not
	// tolerable anymore.
	var lastErr error
	for e := uint64(0); e < 8 && lastErr == nil; e++ {
		_, lastErr = sr.CreateEvent(ctx, e)
	}
	if lastErr == nil {
		t.Fatal("writes kept succeeding with rf servers dead (silent loss window)")
	}
}

func TestResyncServerRoundTrip(t *testing.T) {
	ds, d, spec := newTestCluster(t, bedrock.DeploySpec{Servers: 3, RF: 2})
	ctx := context.Background()
	dset, err := ds.CreateDataSet(ctx, "repl/resync")
	if err != nil {
		t.Fatal(err)
	}
	run, err := dset.CreateRun(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	victimAddr := fabric.Address(d.Group.Servers[victim].Address)
	srNum := pickSubRunOn(t, ds, run.key, victimAddr, false)

	d.Servers[victim].Shutdown()
	markDead(ds, string(victimAddr))

	// Writes during the outage land only on the surviving replica.
	sr, err := run.CreateSubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	want := []particle{{7, 8, 9}}
	var evKeys [][]byte
	for e := uint64(0); e < 8; e++ {
		ev, err := sr.CreateEvent(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Store(ctx, "parts", want); err != nil {
			t.Fatal(err)
		}
		evKeys = append(evKeys, ev.key.Bytes())
	}
	if ds.replicaDrops.Load() == 0 {
		t.Fatal("outage writes recorded no drops; resync would have nothing to prove")
	}

	// Reboot the dead server at the same address with empty databases —
	// exactly what a restarted daemon looks like.
	cfgs, err := bedrock.BuildConfigs(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := bedrock.Boot(cfgs[victim])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	// One probe round notices it answering again: Dead → Rejoined.
	ds.ProbeOnce(ctx)
	if got := ds.Health().StateOf(string(victimAddr)); got != health.Rejoined {
		t.Fatalf("rebooted server state = %v, want rejoined", got)
	}

	st, err := ds.ResyncServer(ctx, victimAddr)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCopied() == 0 {
		t.Fatalf("resync replayed nothing: %+v", st)
	}
	if st.TotalScanned() == 0 {
		t.Fatal("resync scanned nothing")
	}
	if got := ds.Health().StateOf(string(victimAddr)); got != health.Alive {
		t.Fatalf("state after resync = %v, want alive", got)
	}

	// Directly verify the replay landed: the rebooted server came up with
	// empty databases, so the outage-written event keys can only be there
	// if anti-entropy delivered them.
	evSet := ds.eventReplicas(sr.key)
	var victimDB, otherDB yokan.DBHandle
	for _, db := range evSet {
		if db.Addr == victimAddr {
			victimDB = db
		} else {
			otherDB = db
		}
	}
	found, err := ds.yc.Exists(ctx, victimDB, evKeys)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("event key %d missing on the rejoined server after resync", i)
		}
	}

	// The acid test: kill the replica holder that survived the outage.
	// The subrun's events are now served by the rejoined server — reads
	// succeed only if the anti-entropy replay actually delivered them.
	for srvIdx, gs := range d.Group.Servers {
		if fabric.Address(gs.Address) == otherDB.Addr {
			d.Servers[srvIdx].Shutdown()
			markDead(ds, gs.Address)
		}
	}
	sr2, err := run.SubRun(ctx, srNum)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sr2.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 {
		t.Fatalf("rejoined server lists %d events, want 8", len(evs))
	}
	for _, n := range evs {
		ev, err := sr2.Event(ctx, n)
		if err != nil {
			t.Fatalf("open event %d after failback: %v", n, err)
		}
		var got []particle
		if err := ev.Load(ctx, "parts", &got); err != nil {
			t.Fatalf("load from rejoined server: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rejoined server served %v, want %v", got, want)
		}
	}
}

// replicaOutcome is what one replica-read operation ended with: "hit",
// "miss", or the class of the surfaced error.
type replicaOutcome struct {
	result   string
	failover bool // failoverReads moved
	reported bool // some replica's server was reported to the health tracker
}

// TestReplicaReadBehaviour pins the replica-read contract every failover
// read shares — get, exists, one list page, one scan page and the
// put-if-absent arbiter — over hand-built replica sets on a 2-server RF=2
// deployment. Each operation runs on a fresh client so health and the
// failover counter start clean. The replicas are:
//
//	a, b   databases on the two live servers;
//	dead   a handle on an address nothing listens on (a dead server:
//	       local transport failure, routable);
//	bogus  a database name no provider serves (a remote not_found answer:
//	       not routable).
//
// Rows with window set run with a migration window open, where a single
// replica's miss is not authoritative (softMiss).
func TestReplicaReadBehaviour(t *testing.T) {
	dep, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers: 2, RF: 2, ProvidersPerServer: 1, EventDBsPerServer: 2, ProductDBsPerServer: 2,
		NamePrefix: fmt.Sprintf("replread-%d", deploySeq.Add(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Shutdown)
	ctx := context.Background()
	connect := func(t *testing.T) *DataStore {
		ds, err := Connect(ctx, ClientConfig{Group: dep.Group, DisableHeartbeat: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ds.Close)
		return ds
	}
	setup := connect(t)
	a := setup.v().ProductDBs[0]
	var b yokan.DBHandle
	for _, db := range setup.v().ProductDBs {
		if db.Addr != a.Addr {
			b = db
			break
		}
	}
	dead := yokan.DBHandle{Addr: "inproc://replread-dead-server", Provider: a.Provider, Name: a.Name}
	bogus := yokan.DBHandle{Addr: a.Addr, Provider: a.Provider, Name: "products_no_such_db"}

	const (
		hit, miss   = "hit", "miss"
		unavailable = "unavailable"
		noSuchDB    = "no_such_db"
	)
	type row struct {
		name   string
		window bool
		set    []yokan.DBHandle
		// key is stored on keyOn, aux on auxOn; exists asks for both.
		keyOn, auxOn []yokan.DBHandle
		want         map[string]replicaOutcome
		// Under softMiss, which replica an OR-ed exists counts as having
		// served it is not part of the contract.
		existsFailoverUnpinned bool
	}
	all := func(o replicaOutcome) map[string]replicaOutcome {
		return map[string]replicaOutcome{"get": o, "exists": o, "list": o, "scan": o, "put-if-absent": o}
	}
	rows := []row{
		{
			name: "primary answers", set: []yokan.DBHandle{a, b},
			keyOn: []yokan.DBHandle{a, b}, auxOn: []yokan.DBHandle{a, b},
			want: all(replicaOutcome{result: hit}),
		},
		{
			name: "dead primary fails over", set: []yokan.DBHandle{dead, b},
			keyOn: []yokan.DBHandle{b}, auxOn: []yokan.DBHandle{b},
			want: all(replicaOutcome{result: hit, failover: true, reported: true}),
		},
		{
			name: "non-routable error stops", set: []yokan.DBHandle{bogus, b},
			keyOn: []yokan.DBHandle{b}, auxOn: []yokan.DBHandle{b},
			want: all(replicaOutcome{result: noSuchDB}),
		},
		{
			// The committed copy (a) misses; the alternate view's copy holds
			// the key. Point reads fall through (exists ORs key on b with
			// aux on a); a page is a complete answer from the first
			// replica; the arbiter is the first replica.
			name: "migration window soft miss", window: true, set: []yokan.DBHandle{a, b},
			keyOn: []yokan.DBHandle{b}, auxOn: []yokan.DBHandle{a},
			want: map[string]replicaOutcome{
				"get": {result: hit, failover: true}, "exists": {result: hit}, "list": {result: miss},
				"scan": {result: hit}, "put-if-absent": {result: miss},
			},
			existsFailoverUnpinned: true,
		},
		{
			// In a window a miss is only trusted when no replica failed:
			// the unreachable copy might have held the key, so the failure
			// surfaces instead of the miss. (This row is the former
			// TestExistsFromRefusesPartialMissOnReplicaFailure.) Pages and
			// the arbiter fail over to the live copy as usual.
			name: "miss while a replica failed", window: true, set: []yokan.DBHandle{dead, a},
			want: map[string]replicaOutcome{
				"get":           {result: unavailable, reported: true},
				"exists":        {result: unavailable, reported: true},
				"list":          {result: miss, failover: true, reported: true},
				"scan":          {result: hit, failover: true, reported: true},
				"put-if-absent": {result: miss, failover: true, reported: true},
			},
			existsFailoverUnpinned: true,
		},
	}
	stored := []byte("stored-value")
	for ri, r := range rows {
		prefix := fmt.Sprintf("replread/%d/", ri)
		key, aux := []byte(prefix+"key"), []byte(prefix+"aux")
		for _, db := range r.keyOn {
			if err := setup.yc.Put(ctx, db, key, stored); err != nil {
				t.Fatal(err)
			}
		}
		for _, db := range r.auxOn {
			if err := setup.yc.Put(ctx, db, aux, stored); err != nil {
				t.Fatal(err)
			}
		}
		ops := []struct {
			name string
			run  func(ds *DataStore) (bool, error)
		}{
			{"get", func(ds *DataStore) (bool, error) {
				val, err := ds.getFO(ctx, func() []yokan.DBHandle { return r.set }, key)
				if errors.Is(err, yokan.ErrKeyNotFound) {
					return false, nil
				}
				return err == nil && bytes.Equal(val, stored), err
			}},
			{"exists", func(ds *DataStore) (bool, error) {
				found, err := ds.existsFO(ctx, func() []yokan.DBHandle { return r.set }, [][]byte{key, aux})
				return err == nil && found[0] && found[1], err
			}},
			{"list", func(ds *DataStore) (bool, error) {
				page, err := ds.listKeysFO(ctx, r.set, nil, []byte(prefix), 16)
				for _, k := range page {
					if bytes.Equal(k, key) {
						return true, err
					}
				}
				return false, err
			}},
			{"scan", func(ds *DataStore) (bool, error) {
				_, err := ds.scanFO(ctx, r.set, yokan.ScanRequest{Group: []byte(prefix), Hi: ^uint64(0)})
				return err == nil, err
			}},
			{"put-if-absent", func(ds *DataStore) (bool, error) {
				winner, inserted, err := ds.replicatedPutIfAbsent(ctx, r.set, key, []byte("candidate"))
				return err == nil && !inserted && bytes.Equal(winner, stored), err
			}},
		}
		for _, op := range ops {
			t.Run(r.name+"/"+op.name, func(t *testing.T) {
				ds := connect(t)
				if r.window {
					ds.alt.Store(ds.v())
				}
				ok, err := op.run(ds)
				got := replicaOutcome{result: miss, failover: ds.failoverReads.Load() > 0}
				switch {
				case errors.Is(err, yokan.ErrNoSuchDB):
					got.result = noSuchDB
				case xerr.IsUnavailable(err):
					got.result = unavailable
				case err != nil:
					got.result = err.Error()
				case ok:
					got.result = hit
				}
				for _, db := range []yokan.DBHandle{a, b, dead} {
					if ds.Health().StateOf(string(db.Addr)) != health.Alive {
						got.reported = true
					}
				}
				want := r.want[op.name]
				if r.existsFailoverUnpinned && op.name == "exists" {
					got.failover = want.failover
				}
				if got != want {
					t.Fatalf("got %+v (err %v), want %+v", got, err, want)
				}
			})
		}
	}
}
