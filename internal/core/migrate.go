package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Live key-range migration (DESIGN.md §18): the data-plane half of the
// autopilot's plan → copy → verify → epoch-bump → retire state machine.
// These primitives run against a serving datastore:
//
//   - BeginMigration installs the target view as the alternate, turning on
//     dual-write (every write lands in both views' replica sets) and
//     dual-read (the other view's copies are last-resort read fallbacks);
//   - CopyToView walks the committed view and copies every key to its
//     replica set under the target view, respecting the replication factor;
//   - VerifyView re-walks and repairs any copy the target is missing
//     (writes that raced the copy are already there via dual-write);
//   - CommitMigration atomically swaps the committed view — the epoch bump
//     — and keeps the outgoing view as the alternate so in-flight readers
//     retain their fallbacks until RetireView;
//   - RetireView erases keys from outgoing databases that hold no replica
//     claim under the committed view, then closes the migration window;
//   - AbortMigration rolls back before commit: the alternate view is
//     dropped, the committed view stays authoritative, and any copies
//     already landed on the target are inert (rediscovered idempotently by
//     a retry, or destroyed with the abandoned servers).
//
// Every step is idempotent, so the crash-safe retry loop lives one layer
// up, in internal/autopilot. The copy path assumes the HEPnOS data model's
// write-once keys: a key rewritten with a *different* value during the
// copy window may finish with either value on the target.
//
// Copy, verify, anti-entropy resync (ResyncServer) and offline rescaling
// (Rescale) are all one key walk (walkKeys) with different source filters,
// target rules and counters.

// Migration lifecycle errors, classified for the autopilot's retry logic.
var (
	// ErrMigrationActive rejects a second BeginMigration while a window is
	// open (conflict: not retryable, the caller must abort or finish first).
	ErrMigrationActive = xerr.Sentinel("hepnos/migration_active", xerr.ClassConflict, "hepnos: a migration is already active")
	// ErrNoMigration rejects commit/retire/abort outside a window.
	ErrNoMigration = xerr.Sentinel("hepnos/no_migration", xerr.ClassInvalid, "hepnos: no migration is active")
	// ErrEpochRegression rejects a target view whose membership epoch is
	// not ahead of the committed view's — committing it would resurrect a
	// superseded deployment.
	ErrEpochRegression = xerr.Sentinel("hepnos/epoch_regression", xerr.ClassInvalid, "hepnos: target view epoch must exceed the committed epoch")
)

// productKeyPrefixLens are the plausible container-key lengths embedded in
// a product key (dataset, run, subrun, event). Product keys do not
// self-describe their container length, so placement probes all of them:
// every valid length whose placement explains the key's current database
// is a candidate, and false-positive copies are unreachable, idempotent
// garbage — the price of keeping the paper's key format unchanged.
var productKeyPrefixLens = []int{
	keys.UUIDLen,
	keys.UUIDLen + 1*keys.NumLen,
	keys.UUIDLen + 2*keys.NumLen,
	keys.UUIDLen + 3*keys.NumLen,
}

// CopyStats reports one key walk: a migration copy or verify pass, an
// anti-entropy resync or a rescale.
type CopyStats struct {
	// Scanned counts keys examined per role; Copied counts copies written
	// to target databases (by a verify walk: the missing copies repaired).
	Scanned map[string]int
	Copied  map[string]int
	// Ranges is the number of (role, database) source ranges walked.
	Ranges int
}

// TotalScanned returns all keys examined.
func (s CopyStats) TotalScanned() int { return total(s.Scanned) }

// TotalCopied returns all copies written.
func (s CopyStats) TotalCopied() int { return total(s.Copied) }

// total sums a per-role map.
func total(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// migrationRole pairs one role's source and target database sets with the
// rule recovering the parent keys that place a stored key.
type migrationRole struct {
	name string
	src  []yokan.DBHandle
	dst  []yokan.DBHandle
	// parents returns the candidate parent keys placing key (several for
	// products, whose container length is not self-describing).
	parents func(key []byte) [][]byte
}

func migrationRoles(src, dst *View) []migrationRole {
	containerParent := func(key []byte) [][]byte {
		ck, err := keys.ParseContainerKey(key)
		if err != nil {
			return nil
		}
		parent, ok := ck.Parent()
		if !ok {
			return nil
		}
		return [][]byte{parent.Bytes()}
	}
	productParents := func(key []byte) [][]byte {
		var out [][]byte
		for _, l := range productKeyPrefixLens {
			if len(key) > l {
				out = append(out, key[:l])
			}
		}
		return out
	}
	return []migrationRole{
		{"datasets", src.DatasetDBs, dst.DatasetDBs, func(key []byte) [][]byte {
			return [][]byte{[]byte(parentPath(string(key)))}
		}},
		{"runs", src.RunDBs, dst.RunDBs, containerParent},
		{"subruns", src.SubrunDBs, dst.SubrunDBs, containerParent},
		{"events", src.EventDBs, dst.EventDBs, containerParent},
		{"products", src.ProductDBs, dst.ProductDBs, productParents},
	}
}

// MigrationRangeCount returns how many (role, database) source ranges a
// copy pass over the committed view walks — the denominator for progress
// reporting.
func (ds *DataStore) MigrationRangeCount() int {
	v := ds.v()
	return len(v.DatasetDBs) + len(v.RunDBs) + len(v.SubrunDBs) + len(v.EventDBs) + len(v.ProductDBs)
}

// BeginMigration opens a migration window toward target: dual-write and
// dual-read turn on immediately. The target view must carry a strictly
// newer membership epoch than the committed view (the epoch the commit
// will adopt) and use compatible role sets. Fails with ErrMigrationActive
// if a window is already open.
func (ds *DataStore) BeginMigration(target *View) error {
	if ds.closed.Load() {
		return ErrClosed
	}
	if target == nil {
		return xerr.New(xerr.ClassInvalid, "hepnos: migration target view is nil")
	}
	for role, dbs := range map[string][]yokan.DBHandle{
		"dataset": target.DatasetDBs, "run": target.RunDBs, "subrun": target.SubrunDBs,
		"event": target.EventDBs, "product": target.ProductDBs,
	} {
		if len(dbs) == 0 {
			return xerr.Newf(xerr.ClassInvalid, "hepnos: migration target has no %s databases", role)
		}
	}
	ds.migMu.Lock()
	defer ds.migMu.Unlock()
	if ds.alt.Load() != nil {
		return ErrMigrationActive
	}
	if target.Group.Epoch <= ds.v().Group.Epoch {
		return xerr.Wrap(ErrEpochRegression,
			fmt.Sprintf("target epoch %d, committed epoch %d", target.Group.Epoch, ds.v().Group.Epoch))
	}
	ds.alt.Store(target)
	return nil
}

// AltView returns the migration window's alternate view (nil outside a
// window): the target before commit, the outgoing view after.
func (ds *DataStore) AltView() *View { return ds.alt.Load() }

// AbortMigration rolls a not-yet-committed migration back: the alternate
// view is dropped, restoring single-view operation on the committed view.
// Copies already landed on the target are inert — unreachable through the
// committed view, rewritten idempotently by a retry, or destroyed with the
// abandoned destination servers.
func (ds *DataStore) AbortMigration() error {
	ds.migMu.Lock()
	defer ds.migMu.Unlock()
	alt := ds.alt.Load()
	if alt == nil {
		return ErrNoMigration
	}
	if alt.Group.Epoch <= ds.v().Group.Epoch {
		// The alternate is the *outgoing* view: the migration already
		// committed, rollback is no longer possible, only retire.
		return xerr.New(xerr.ClassConflict, "hepnos: migration already committed; retire instead of abort")
	}
	ds.alt.Store(nil)
	return nil
}

// keyWalk configures one walkKeys pass.
type keyWalk struct {
	span     string // trace span name
	src, dst *View
	// from filters the source databases listed (nil lists them all).
	from func(yokan.DBHandle) bool
	// onto reports whether t, a member of a key's replica set under dst,
	// is a target of the walk; srcSet is the key's replica set under src.
	onto func(t yokan.DBHandle, srcSet []yokan.DBHandle) bool
	// verify probes the targets and copies only the keys they miss.
	verify bool
	// counter accumulates the copies written.
	counter *atomic.Int64
	onRange func(role string, done, total int)
}

// notSource is the migration target rule: every database of the key's
// replica set under the target view that does not already hold it.
func notSource(t yokan.DBHandle, srcSet []yokan.DBHandle) bool { return !containsDB(srcSet, t) }

// walkKeys is the one key walk. It lists every (role, source database) of
// w.src page by page and, for each candidate parent of each key, recomputes
// the key's replica set under src and dst. A key travels from exactly one
// source — its owner, the first replica in read order that is not itself
// a target — so under RF ≥ 2 a dead source's share shifts to a surviving
// replica on the retry instead of being lost. Keys are batched by target
// database and either copied (PutMulti) or, with verify, probed (Exists)
// and the missing ones copied. Copies ride the batch QoS class so
// interactive reads keep their latency SLO. Idempotent: a partial walk
// rerun rewrites the same byte-identical values.
func (ds *DataStore) walkKeys(ctx context.Context, w keyWalk) (st CopyStats, err error) {
	st = CopyStats{Scanned: map[string]int{}, Copied: map[string]int{}}
	if ds.closed.Load() {
		return st, ErrClosed
	}
	ctx = qos.WithClass(ctx, qos.ClassBatch)
	sp := ds.tracer.Start(w.span, obs.KindInternal, obs.SpanFromContext(ctx), "")
	ctx = obs.ContextWithSpan(ctx, sp.Context())
	defer func() { sp.End(err) }()

	type batch struct{ keys, vals [][]byte }
	roles := migrationRoles(w.src, w.dst)
	ranges := 0
	for _, r := range roles {
		ranges += len(r.src)
	}
	for _, r := range roles {
		for _, db := range r.src {
			listed := w.from == nil || w.from(db)
			for from := []byte(nil); listed; {
				kvs, lerr := ds.yc.ListKeyVals(ctx, db, from, nil, listPageSize)
				if lerr != nil {
					return st, fmt.Errorf("hepnos: key walk: list %s: %w", db, lerr)
				}
				if len(kvs) == 0 {
					break
				}
				byTarget := map[yokan.DBHandle]*batch{}
				for _, kv := range kvs {
					st.Scanned[r.name]++
					for _, parent := range r.parents(kv.Key) {
						srcSet := ds.replicasFor(r.src, parent)
						if !containsDB(srcSet, db) {
							continue // this interpretation does not place the key here
						}
						var targets, owners []yokan.DBHandle
						for _, t := range ds.replicasFor(r.dst, parent) {
							if w.onto(t, srcSet) {
								targets = append(targets, t)
							}
						}
						for _, s := range srcSet {
							if !containsDB(targets, s) {
								owners = append(owners, s)
							}
						}
						if len(targets) == 0 || len(owners) == 0 || ds.readOrder(owners)[0] != db {
							continue // nothing to send, or another replica sends it
						}
						for _, t := range targets {
							b := byTarget[t]
							if b == nil {
								b = &batch{}
								byTarget[t] = b
							}
							b.keys = append(b.keys, kv.Key)
							b.vals = append(b.vals, kv.Val)
						}
					}
				}
				for t, b := range byTarget {
					ks, vs := b.keys, b.vals
					if w.verify {
						found, eerr := ds.yc.Exists(ctx, t, ks)
						if eerr != nil {
							return st, fmt.Errorf("hepnos: key walk: verify %s: %w", t, eerr)
						}
						ks, vs = nil, nil
						for i, ok := range found {
							if !ok {
								ks = append(ks, b.keys[i])
								vs = append(vs, b.vals[i])
							}
						}
					}
					if len(ks) == 0 {
						continue
					}
					if perr := ds.yc.PutMulti(ctx, t, ks, vs); perr != nil {
						return st, fmt.Errorf("hepnos: key walk: copy to %s: %w", t, perr)
					}
					st.Copied[r.name] += len(ks)
					w.counter.Add(int64(len(ks)))
				}
				from = kvs[len(kvs)-1].Key
			}
			st.Ranges++
			if w.onRange != nil {
				w.onRange(r.name, st.Ranges, ranges)
			}
		}
	}
	return st, nil
}

// CopyToView copies every key reachable through the committed view to its
// replica set under target. onRange, when non-nil, observes progress after
// each (role, database) source range completes.
func (ds *DataStore) CopyToView(ctx context.Context, target *View, onRange func(role string, done, total int)) (CopyStats, error) {
	return ds.walkKeys(ctx, keyWalk{
		span: "core:migrate_copy", src: ds.v(), dst: target, onto: notSource,
		counter: &ds.migrationCopied, onRange: onRange,
	})
}

// VerifyView re-walks the committed view, checks that every key exists on
// every member of its target-view replica set, and repairs the copies the
// target is missing. TotalCopied() == 0 means the target holds a complete
// image.
func (ds *DataStore) VerifyView(ctx context.Context, target *View) (CopyStats, error) {
	return ds.walkKeys(ctx, keyWalk{
		span: "core:migrate_verify", src: ds.v(), dst: target, onto: notSource,
		verify: true, counter: &ds.migrationRepaired,
	})
}

// ResyncServer is the anti-entropy pass for a rejoined server — reachable,
// but missing every write tolerantly dropped while it was down: it
// verifies the committed view onto the databases at addr, copying each
// key they should hold and miss from its owner among the usable peers.
// It requires quiescence (no concurrent writers) and a replication factor
// of at least 2 — with rf 1 a dead server's keys have no surviving copy.
// Rerunning a partially-failed pass is safe. On success the health
// tracker marks the server resynced (Rejoined → Alive) and reads prefer
// it again.
func (ds *DataStore) ResyncServer(ctx context.Context, addr fabric.Address) (CopyStats, error) {
	if ds.rf <= 1 {
		return CopyStats{}, fmt.Errorf("hepnos: resync %s: replication factor is 1, nothing to replay from", addr)
	}
	v := ds.v()
	st, err := ds.walkKeys(ctx, keyWalk{
		span: "core:resync", src: v, dst: v, verify: true, counter: &ds.resyncReplayed,
		from: func(db yokan.DBHandle) bool { return ds.health.Usable(string(db.Addr)) },
		onto: func(t yokan.DBHandle, _ []yokan.DBHandle) bool { return t.Addr == addr },
	})
	if err != nil {
		return st, err
	}
	ds.health.MarkResynced(string(addr))
	return st, nil
}

// Rescale migrates all data reachable through old so that it is placed
// under new's view — the storage rescaling the paper names as future work
// (§V, Pufferscale). It is the live migration above run to completion on
// old: BeginMigration → CopyToView → VerifyView → CommitMigration →
// RetireView, after which old serves new's view. Keys whose placement did
// not change are not copied; with PlacementJump growing the database set
// moves only ~1/(n+1) of them. Both clients must use the same placement
// strategy, and new's membership epoch must be strictly newer than old's.
func Rescale(ctx context.Context, old, new *DataStore) (CopyStats, error) {
	if old.placement != new.placement {
		return CopyStats{}, fmt.Errorf("hepnos: rescale: placement strategies differ (%q vs %q)",
			old.placement, new.placement)
	}
	target := new.v()
	if err := old.BeginMigration(target); err != nil {
		return CopyStats{}, fmt.Errorf("hepnos: rescale: %w", err)
	}
	st, err := old.CopyToView(ctx, target, nil)
	if err == nil {
		_, err = old.VerifyView(ctx, target)
	}
	if err == nil {
		err = old.CommitMigration(target)
	}
	if err != nil {
		_ = old.AbortMigration()
		return st, fmt.Errorf("hepnos: rescale: %w", err)
	}
	_, err = old.RetireView(ctx)
	return st, err
}

// CommitMigration atomically swaps the committed view to target — the
// client-side half of the epoch bump. The outgoing view stays installed as
// the alternate (dual-read fallback for in-flight cursors) until RetireView
// closes the window. The prober and health tracker are re-pointed at the
// new membership.
func (ds *DataStore) CommitMigration(target *View) error {
	if ds.closed.Load() {
		return ErrClosed
	}
	ds.migMu.Lock()
	defer ds.migMu.Unlock()
	if ds.alt.Load() != target {
		return xerr.New(xerr.ClassInvalid, "hepnos: commit target is not the active migration's view")
	}
	if target.Group.Epoch <= ds.v().Group.Epoch {
		return xerr.Wrap(ErrEpochRegression,
			fmt.Sprintf("target epoch %d, committed epoch %d", target.Group.Epoch, ds.v().Group.Epoch))
	}
	outgoing := ds.v()
	ds.view.Store(target)
	ds.alt.Store(outgoing)
	ds.viewGen.Add(1)
	ds.refreshMembership(outgoing, target)
	return nil
}

// refreshMembership re-points the prober and tracker at the committed
// membership after a view swap. Called under migMu.
func (ds *DataStore) refreshMembership(outgoing, committed *View) {
	current := make([]string, len(committed.Group.Servers))
	inNew := map[string]bool{}
	for i, srv := range committed.Group.Servers {
		current[i] = srv.Address
		inNew[srv.Address] = true
	}
	if ds.prober != nil {
		ds.prober.SetTargets(current)
	} else {
		ds.health.Watch(current...)
	}
	// Drained servers stop counting against the unusable budget the moment
	// they leave the membership.
	for _, srv := range outgoing.Group.Servers {
		if !inNew[srv.Address] {
			ds.health.Forget(srv.Address)
		}
	}
}

// RetireView closes a committed migration window: keys on outgoing-view
// databases that hold no replica claim under the committed view are erased
// (skipping databases on servers that already left the membership — they
// are about to be shut down wholesale), and the alternate view is cleared,
// ending dual-read. Returns the number of keys erased.
func (ds *DataStore) RetireView(ctx context.Context) (int, error) {
	if ds.closed.Load() {
		return 0, ErrClosed
	}
	ds.migMu.Lock()
	outgoing := ds.alt.Load()
	committed := ds.v()
	if outgoing == nil {
		ds.migMu.Unlock()
		return 0, ErrNoMigration
	}
	if outgoing.Group.Epoch >= committed.Group.Epoch {
		ds.migMu.Unlock()
		return 0, xerr.New(xerr.ClassConflict, "hepnos: migration not committed; abort instead of retire")
	}
	ds.migMu.Unlock()

	ctx = qos.WithClass(ctx, qos.ClassBatch)
	sp := ds.tracer.Start("core:migrate_retire", obs.KindInternal, obs.SpanFromContext(ctx), "")
	ctx = obs.ContextWithSpan(ctx, sp.Context())
	var err error
	defer func() { sp.End(err) }()

	inMembership := map[string]bool{}
	for _, srv := range committed.Group.Servers {
		inMembership[srv.Address] = true
	}
	erased := 0
	for _, r := range migrationRoles(outgoing, committed) {
		for _, db := range r.src {
			if !inMembership[string(db.Addr)] {
				continue // dies with its drained server
			}
			if containsDB(r.dst, db) {
				// The database survives into the committed view; erase only
				// keys whose committed replica sets exclude it.
				if erased, err = ds.retireRange(ctx, r, db, erased); err != nil {
					return erased, err
				}
			}
		}
	}
	ds.migMu.Lock()
	// Only clear if the window is still ours (a concurrent begin is
	// impossible while alt is non-nil, but stay defensive).
	if ds.alt.Load() == outgoing {
		ds.alt.Store(nil)
	}
	ds.viewGen.Add(1)
	ds.migMu.Unlock()
	return erased, nil
}

// retireRange erases one outgoing database's unclaimed keys.
func (ds *DataStore) retireRange(ctx context.Context, r migrationRole, db yokan.DBHandle, erased int) (int, error) {
	var from []byte
	for {
		page, err := ds.yc.ListKeys(ctx, db, from, nil, listPageSize)
		if err != nil {
			return erased, fmt.Errorf("hepnos: migrate retire scan %s: %w", db, err)
		}
		if len(page) == 0 {
			return erased, nil
		}
		var drop [][]byte
		for _, key := range page {
			claimed := false
			for _, parent := range r.parents(key) {
				if containsDB(ds.replicasFor(r.dst, parent), db) {
					claimed = true
					break
				}
			}
			if !claimed {
				drop = append(drop, key)
			}
		}
		if len(drop) > 0 {
			if _, err := ds.yc.Erase(ctx, db, drop); err != nil {
				return erased, fmt.Errorf("hepnos: migrate retire erase from %s: %w", db, err)
			}
			erased += len(drop)
			ds.migrationErased.Add(int64(len(drop)))
		}
		from = page[len(page)-1]
	}
}

// GroupEpoch returns the committed view's membership epoch.
func (ds *DataStore) GroupEpoch() uint64 { return ds.v().Group.Epoch }

// Group returns the committed view's membership document.
func (ds *DataStore) Group() bedrock.GroupFile { return ds.v().Group }
