package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/health"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// This file is the replication and failover layer (ISSUE 5): every key is
// written to its placement primary plus rf−1 successor databases on
// *distinct servers*, and reads consult the health tracker to route around
// suspect/dead primaries. The successor walk mirrors chash.Ring.Successors:
// starting from the placement index, take the next databases in index order,
// skipping databases co-located with an already-chosen server — BuildConfigs
// lays each server's databases out contiguously, so a naive +1 walk would
// put both copies on the same host.

// replicasFor returns the databases holding copies of keys placed by
// parentKey within one role set: the placement primary first, then up to
// rf−1 successors on distinct servers. With rf=1 (or a single database) it
// degenerates to the classic single-home placement.
func (ds *DataStore) replicasFor(dbs []yokan.DBHandle, parentKey []byte) []yokan.DBHandle {
	primary := ds.placement.placer(len(dbs)).Place(parentKey)
	out := make([]yokan.DBHandle, 1, max(ds.rf, 1))
	out[0] = dbs[primary]
next:
	for step := 1; step < len(dbs) && len(out) < ds.rf; step++ {
		db := dbs[(primary+step)%len(dbs)]
		for _, chosen := range out {
			if chosen.Addr == db.Addr {
				continue next
			}
		}
		out = append(out, db)
	}
	return out
}

// Per-role replica sets, by the paper's parent-key placement rule (§II-C).
//
// During a live migration (DESIGN.md §18) the sets are the *union* of the
// committed view's replicas and the alternate view's: writes land in both
// views (dual-write, so nothing ingested during the copy window is lost
// across the epoch bump), and reads keep the committed view's replicas
// first — the read owner never changes mid-migration, which the PEP
// exactly-once dedup relies on — while gaining the other view's copies as
// last-resort fallbacks.

// unionReplicas builds the replica set for parentKey from the committed
// view's role databases, appending the alternate view's replicas (deduped)
// while a migration window is open.
func (ds *DataStore) unionReplicas(role func(*View) []yokan.DBHandle, parentKey []byte) []yokan.DBHandle {
	out := ds.replicasFor(role(ds.v()), parentKey)
	alt := ds.alt.Load()
	if alt == nil {
		return out
	}
	for _, db := range ds.replicasFor(role(alt), parentKey) {
		if !containsDB(out, db) {
			out = append(out, db)
		}
	}
	return out
}

// containsDB reports whether the replica set includes db.
func containsDB(set []yokan.DBHandle, db yokan.DBHandle) bool {
	for _, d := range set {
		if d == db {
			return true
		}
	}
	return false
}

func (ds *DataStore) datasetReplicas(path string) []yokan.DBHandle {
	return ds.unionReplicas(func(v *View) []yokan.DBHandle { return v.DatasetDBs }, []byte(parentPath(path)))
}

func (ds *DataStore) runReplicas(dsKey keys.ContainerKey) []yokan.DBHandle {
	return ds.unionReplicas(func(v *View) []yokan.DBHandle { return v.RunDBs }, dsKey.Bytes())
}

func (ds *DataStore) subrunReplicas(runKey keys.ContainerKey) []yokan.DBHandle {
	return ds.unionReplicas(func(v *View) []yokan.DBHandle { return v.SubrunDBs }, runKey.Bytes())
}

func (ds *DataStore) eventReplicas(srKey keys.ContainerKey) []yokan.DBHandle {
	return ds.unionReplicas(func(v *View) []yokan.DBHandle { return v.EventDBs }, srKey.Bytes())
}

func (ds *DataStore) productReplicas(ck keys.ContainerKey) []yokan.DBHandle {
	return ds.unionReplicas(func(v *View) []yokan.DBHandle { return v.ProductDBs }, ck.Bytes())
}

// readOrder reorders a replica set for reading: Alive servers first, then
// Rejoined (reachable but possibly missing writes until anti-entropy
// finishes), then whatever is left as a last resort — asking a Suspect
// server beats returning an error. Placement order is preserved within each
// class, so all clients with a converged health view agree on the first
// element (the read owner, which the PEP scan dedup relies on).
func (ds *DataStore) readOrder(replicas []yokan.DBHandle) []yokan.DBHandle {
	if len(replicas) <= 1 || ds.health.StateOf(string(replicas[0].Addr)) == health.Alive {
		return replicas
	}
	out := make([]yokan.DBHandle, 0, len(replicas))
	for _, want := range []health.State{health.Alive, health.Rejoined} {
		for _, db := range replicas {
			if ds.health.StateOf(string(db.Addr)) == want {
				out = append(out, db)
			}
		}
	}
	for _, db := range replicas {
		if ds.health.Usable(string(db.Addr)) {
			continue
		}
		out = append(out, db)
	}
	return out
}

// routable reports whether err is a failure failover may route around:
// anything classified unavailable — a local transport fault (drop,
// unreachable, open breaker) or a remote per-replica condition such as a
// closed database. Definitive answers (not_found, conflict, invalid) and
// the caller's own cancellation are not routable: another replica would
// say the same thing.
func routable(err error) bool {
	return xerr.IsUnavailable(err)
}

// localTransport reports whether err means the target server never
// answered — unavailable with no remote mark. Only these condemn the
// server in the health tracker and qualify for tolerated write drops: a
// remote-marked unavailable (say, ErrDBClosed from a live provider) proves
// the server is up, so counting it against health would trigger failover
// storms against healthy hosts.
func localTransport(err error) bool {
	return xerr.IsUnavailable(err) && !xerr.IsRemote(err)
}

// softMiss reports whether a not-found answer from a single replica may be
// stale rather than authoritative. On a quiet cluster every usable replica
// holds the same keys, so the first answer settles it. During a live
// migration (DESIGN.md §18) that is no longer true: an outgoing database
// may have been retired (its unclaimed keys erased) between the moment the
// replica set was resolved and the read, and a target database may not have
// received its copy yet. Both hazards are visible here — the window is open
// (alt non-nil) or the resolved set is wider than rf, the fingerprint of a
// union set resolved while the window was still open — and in either case
// a miss only counts when every replica in the set agrees.
func (ds *DataStore) softMiss(replicas []yokan.DBHandle) bool {
	return len(replicas) > ds.rf || ds.alt.Load() != nil
}

// readReplicas is the one replica-read loop: every failover read (get,
// exists, list and scan pages, the put-if-absent arbiter, the prefetcher's
// group fallback) is a try callback on it. try is called on the replicas
// in read order until one settles the read:
//
//   - an error that is routable moves on to the next copy, reporting the
//     server to the health tracker when it never answered; any other error
//     stops the read and is returned;
//   - a hit settles the read;
//   - a miss (false, nil) settles it too, except under softMiss, where the
//     remaining copies are asked as well.
//
// A read settled by a database other than the placement primary adds
// reads to the failover counter. When no copy settled the read, the last
// routable failure is returned — a miss is only trustworthy when no
// replica failed, because the unreachable copy might have held the key —
// or nil when every copy missed. Callers pass closures that do not
// escape, so the loop itself allocates nothing.
func (ds *DataStore) readReplicas(replicas []yokan.DBHandle, reads int, try func(yokan.DBHandle) (hit bool, err error)) error {
	soft := ds.softMiss(replicas)
	var lastErr error
	for _, db := range ds.readOrder(replicas) {
		hit, err := try(db)
		if err != nil {
			if !routable(err) {
				return err
			}
			if localTransport(err) {
				ds.health.ReportFailure(string(db.Addr))
			}
			lastErr = err
			continue
		}
		if hit || !soft {
			if db != replicas[0] {
				ds.failoverReads.Add(int64(reads))
			}
			return nil
		}
	}
	return lastErr
}

// missRetries bounds the re-resolve loop of resolveRetry: a migration
// commits at most once per window, so one retry usually settles it; the
// bound only guards against back-to-back topology changes.
const missRetries = 3

// resolveRetry runs pass over a freshly resolved replica set. A pass that
// missed across a view transition (CommitMigration/RetireView bumped
// viewGen after the set was resolved — the copy asked may have been
// retired) is rerun against the new committed view instead of trusted.
func (ds *DataStore) resolveRetry(resolve func() []yokan.DBHandle, pass func([]yokan.DBHandle) (missed bool)) {
	for attempt := 0; ; attempt++ {
		gen := ds.viewGen.Load()
		if !pass(resolve()) || attempt >= missRetries || ds.viewGen.Load() == gen {
			return
		}
	}
}

// getFO is Get with resolve-retry and health-gated failover. A value or an
// authoritative yokan.ErrKeyNotFound settles the read.
func (ds *DataStore) getFO(ctx context.Context, resolve func() []yokan.DBHandle, key []byte) (data []byte, err error) {
	ds.resolveRetry(resolve, func(replicas []yokan.DBHandle) bool {
		var miss error
		err = ds.readReplicas(replicas, 1, func(db yokan.DBHandle) (bool, error) {
			val, gerr := ds.yc.Get(ctx, db, key)
			if errors.Is(gerr, yokan.ErrKeyNotFound) {
				miss = gerr
				return false, nil
			}
			if gerr != nil {
				return false, gerr
			}
			data, miss = val, nil
			return true, nil
		})
		if err == nil {
			err = miss
		}
		return errors.Is(err, yokan.ErrKeyNotFound)
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// existsFO is Exists with the same resolve-retry and failover contract as
// getFO. A read counts as a hit when every key was found; under softMiss
// the per-key answers are OR-ed across the replica set (a key exists if
// any view's copy holds it).
func (ds *DataStore) existsFO(ctx context.Context, resolve func() []yokan.DBHandle, ks [][]byte) (found []bool, err error) {
	ds.resolveRetry(resolve, func(replicas []yokan.DBHandle) bool {
		found = nil
		err = ds.readReplicas(replicas, 1, func(db yokan.DBHandle) (bool, error) {
			got, eerr := ds.yc.Exists(ctx, db, ks)
			if eerr != nil {
				return false, eerr
			}
			if found == nil {
				found = got
			} else {
				for i := range found {
					found[i] = found[i] || got[i]
				}
			}
			return allTrue(found), nil
		})
		return err == nil && !allTrue(found)
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// listKeysFO is one ListKeys page with health-gated failover. Pages are
// addressed by the resume cursor, so an iteration that switches replicas
// mid-listing still sees every key exactly once — every usable replica
// holds the same key set.
func (ds *DataStore) listKeysFO(ctx context.Context, replicas []yokan.DBHandle, from, prefix []byte, max int) (page [][]byte, err error) {
	err = ds.readReplicas(replicas, 1, func(db yokan.DBHandle) (bool, error) {
		var lerr error
		page, lerr = ds.yc.ListKeys(ctx, db, from, prefix, max)
		return lerr == nil, lerr
	})
	if err != nil {
		return nil, err
	}
	return page, nil
}

// writeTolerable decides whether a failed replica write may be dropped
// rather than surfaced. Four conditions: replication must be on; the
// failure must be transport-class; the target server must be unusable once
// the failure itself is counted (so a breaker-opened or probed-dead server
// qualifies immediately); and fewer servers must be unusable than the
// replication factor — past that point some keys may have lost every copy,
// so losses must surface as errors instead. Dropped copies are replayed by
// ResyncServer when the server rejoins.
func (ds *DataStore) writeTolerable(db yokan.DBHandle, err error) bool {
	if ds.rf <= 1 || !localTransport(err) {
		return false
	}
	target := string(db.Addr)
	ds.health.ReportFailure(target)
	if ds.health.Usable(target) {
		return false
	}
	return ds.health.UnusableCount() < ds.rf
}

// replicatedPut writes one key to every database of its replica set, the
// copies riding the async engine's RPC pool in parallel (§II-D — replica
// writes must not halve ingest throughput). It succeeds when the update is
// durable: at least one copy landed and every failed copy was tolerable per
// writeTolerable.
func (ds *DataStore) replicatedPut(ctx context.Context, replicas []yokan.DBHandle, key, val []byte) error {
	if len(replicas) == 1 {
		return ds.yc.Put(ctx, replicas[0], key, val)
	}
	evs := make([]*asyncengine.Eventual[asyncengine.Void], len(replicas))
	for i, db := range replicas {
		evs[i] = ds.yc.PutAsync(ctx, ds.engine, db, key, val)
	}
	landed := 0
	var errs []error
	for i, ev := range evs {
		if _, err := ev.Wait(nil); err != nil {
			if ds.writeTolerable(replicas[i], err) {
				ds.replicaDrops.Add(1)
				continue
			}
			errs = append(errs, fmt.Errorf("replica %s: %w", replicas[i], err))
			continue
		}
		landed++
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	if landed == 0 {
		return fmt.Errorf("hepnos: replicated put: all %d copies dropped", len(replicas))
	}
	ds.replicaWrites.Add(int64(landed - 1))
	return nil
}

// replicatedPutIfAbsent arbitrates an atomic get-or-put on the first usable
// replica — clients with a converged health view pick the same arbiter —
// then copies the winning value to the remaining replicas. The arbiter is
// chosen by readReplicas, so a dead or closed primary hands arbitration to
// the next replica in read order instead of sinking dataset creation.
// Replica-copy failures follow the writeTolerable rule.
func (ds *DataStore) replicatedPutIfAbsent(ctx context.Context, replicas []yokan.DBHandle, key, val []byte) ([]byte, bool, error) {
	var (
		arbiter  yokan.DBHandle
		winner   []byte
		inserted bool
	)
	err := ds.readReplicas(replicas, 1, func(db yokan.DBHandle) (bool, error) {
		w, ins, perr := ds.yc.PutIfAbsent(ctx, db, key, val)
		if perr != nil {
			return false, perr
		}
		arbiter, winner, inserted = db, w, ins
		return true, nil
	})
	if err != nil {
		return nil, false, err
	}
	for _, db := range replicas {
		if db == arbiter {
			continue
		}
		if perr := ds.yc.Put(ctx, db, key, winner); perr != nil {
			if !ds.writeTolerable(db, perr) {
				return nil, false, perr
			}
			ds.replicaDrops.Add(1)
			continue
		}
		ds.replicaWrites.Add(1)
	}
	return winner, inserted, nil
}
