package core

import (
	"context"
	"fmt"
	"reflect"

	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Server-side predicate pushdown (DESIGN.md §17): DataSet.Scan ships a
// selection predicate and a column projection to the product databases,
// which evaluate both against the columnar pages written by the ingest
// path and return only surviving event ids plus the requested columns.
// The analysis loop then touches a small fraction of the wire bytes a
// full row-path decode would move.

// scanFO is one pushdown-scan call with health-gated failover
// (readReplicas). Page keys are identical on every replica, so a resume
// cursor taken from one copy is valid on another — a paged scan survives
// mid-flight failover. Successful calls feed the client's hepnos_scan_*
// counters.
func (ds *DataStore) scanFO(ctx context.Context, replicas []yokan.DBHandle, req yokan.ScanRequest) (res *yokan.ScanResult, err error) {
	err = ds.readReplicas(replicas, 1, func(db yokan.DBHandle) (bool, error) {
		var serr error
		res, serr = ds.yc.Scan(ctx, db, req)
		return serr == nil, serr
	})
	if err != nil {
		return nil, err
	}
	ds.scanRequests.Add(1)
	ds.scanPagesScanned.Add(int64(res.PagesScanned))
	ds.scanRowsScanned.Add(int64(res.RowsScanned))
	ds.scanRowsMatched.Add(int64(res.RowsMatched))
	ds.scanBytesReturned.Add(int64(res.ReturnedBytes))
	if res.FullBytes > res.ReturnedBytes {
		ds.scanBytesSaved.Add(int64(res.FullBytes - res.ReturnedBytes))
	}
	return res, nil
}

// allColumns returns the identity projection for a schema.
func allColumns(schema *serde.ColumnSchema) []uint32 {
	cols := make([]uint32, schema.NumFields())
	for i := range cols {
		cols[i] = uint32(i)
	}
	return cols
}

// loadColumnar serves Load for a page-resident product: a no-predicate,
// all-column scan pinned to this event. found is false when the pages hold
// no rows for the event — the caller falls back to the row path, which
// covers zero-row products and types stored before registration.
func (c *container) loadColumnar(ctx context.Context, schema *serde.ColumnSchema, label string, ptr any) (found bool, err error) {
	srKey, _ := c.key.Parent()
	ev := c.key.Number()
	replicas := c.ds.productReplicas(srKey)
	req := yokan.ScanRequest{
		Group: pageGroupKey(srKey, label, schema.TypeName()),
		Cols:  allColumns(schema),
		Lo:    ev, Hi: ev,
	}
	chunks := make([][]byte, schema.NumFields())
	rows := 0
	for {
		res, err := c.ds.scanFO(ctx, replicas, req)
		if err != nil {
			return true, err
		}
		rows += len(res.Events)
		for f := range chunks {
			chunks[f] = append(chunks[f], res.Cols[f]...)
		}
		if len(res.More) == 0 {
			break
		}
		req.From = res.More
	}
	if rows == 0 {
		return false, nil
	}
	return true, schema.UnmarshalColumns(chunks, rows, ptr)
}

// hasColumnar reports whether the event's pages hold rows for the product;
// like loadColumnar it scans without columns, so only event ids cross the
// wire. found=false falls back to the row path.
func (c *container) hasColumnar(ctx context.Context, schema *serde.ColumnSchema, label string) (bool, error) {
	srKey, _ := c.key.Parent()
	ev := c.key.Number()
	replicas := c.ds.productReplicas(srKey)
	req := yokan.ScanRequest{
		Group: pageGroupKey(srKey, label, schema.TypeName()),
		Lo:    ev, Hi: ev,
	}
	for {
		res, err := c.ds.scanFO(ctx, replicas, req)
		if err != nil {
			return false, err
		}
		if res.RowsMatched > 0 {
			return true, nil
		}
		if len(res.More) == 0 {
			return false, nil
		}
		req.From = res.More
	}
}

// ScanStats accounts one cursor's pushdown work, summed over every scan
// RPC it issued. FullBytes/ReturnedBytes is the wire-byte reduction versus
// a full row-path decode of the scanned products.
type ScanStats struct {
	Requests      uint64 // scan RPCs issued
	PagesScanned  uint64
	RowsScanned   uint64
	RowsMatched   uint64
	FullBytes     uint64 // row-path bytes of everything scanned
	ReturnedBytes uint64 // column bytes + event ids actually shipped
}

// ScanCursor streams the events of a dataset whose columnar product rows
// survive a server-evaluated predicate, in (run, subrun, event) order.
// Usage:
//
//	cur := d.Scan(ctx, "reco", []nova.Slice{}, pred, "CVNe", "CalE")
//	for cur.Next() {
//	    id := cur.EventID()
//	    var rows []nova.Slice // only CVNe and CalE populated
//	    _ = cur.Rows(&rows)
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Cursors are not safe for concurrent use.
type ScanCursor struct {
	ctx      context.Context
	ds       *DataStore
	schema   *serde.ColumnSchema
	slice    reflect.Type // the product slice type []T
	label    string
	pred     serde.Predicate
	cols     []uint32
	pageSize int

	runs *RunCursor
	srs  *SubRunCursor

	curRun, curSub uint64
	replicas       []yokan.DBHandle
	group          []byte
	from           []byte
	inSubrun       bool // a subrun's paged scan is in progress

	events       []uint64
	decoded      reflect.Value // []T, parallel to events
	gStart, gEnd int           // current event's row range in decoded

	stats ScanStats
	err   error
	done  bool
}

// Scan starts a pushdown scan over every event of the dataset holding a
// columnar product of example's registered type under label. Rows are
// filtered server-side by pred (the zero Predicate selects all rows) and
// only the named columns are shipped back; empty columns selects every
// field. Scans run in the interactive QoS class and fail over between
// replicas like any read.
func (d *DataSet) Scan(ctx context.Context, label string, example any, pred serde.Predicate, columns ...string) *ScanCursor {
	c := &ScanCursor{ds: d.ds, label: label, pageSize: listPageSize}
	c.ctx = qos.WithClass(ctx, qos.ClassInteractive)
	schema := serde.ColumnarOf(example)
	if schema == nil {
		c.err = fmt.Errorf("%w: type %q is not registered for columnar storage", serde.ErrUnsupported, serde.TypeName(example))
		return c
	}
	c.schema = schema
	t := reflect.TypeOf(example)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	c.slice = t
	if pred.Op != 0 {
		bound, err := pred.Bind(schema)
		if err != nil {
			c.err = fmt.Errorf("hepnos: scan predicate: %w", err)
			return c
		}
		c.pred = bound
	}
	if len(columns) == 0 {
		c.cols = allColumns(schema)
	} else {
		c.cols = make([]uint32, len(columns))
		for i, name := range columns {
			f := schema.FieldIndex(name)
			if f < 0 {
				c.err = fmt.Errorf("hepnos: scan: type %q has no column %q", schema.TypeName(), name)
				return c
			}
			c.cols[i] = uint32(f)
		}
	}
	c.runs = d.RunCursor(c.ctx, 0)
	return c
}

// Next advances to the next event with at least one surviving row; it
// returns false at the end of the dataset or on error.
func (c *ScanCursor) Next() bool {
	if c.err != nil || c.done {
		return false
	}
	for {
		// Advance within the decoded reply: one event per Next call.
		if c.gEnd < len(c.events) {
			c.gStart = c.gEnd
			ev := c.events[c.gStart]
			for c.gEnd < len(c.events) && c.events[c.gEnd] == ev {
				c.gEnd++
			}
			return true
		}
		if c.inSubrun {
			if !c.fetch() {
				if c.err != nil {
					return false
				}
				continue // subrun drained; move to the next one
			}
			continue
		}
		if !c.nextSubrun() {
			return false
		}
	}
}

// nextSubrun positions the cursor on the next subrun of the dataset,
// crossing run boundaries as needed.
func (c *ScanCursor) nextSubrun() bool {
	for {
		if c.srs != nil && c.srs.Next() {
			sr := c.srs.SubRun()
			c.curSub = sr.Number()
			c.group = pageGroupKey(sr.Key(), c.label, c.schema.TypeName())
			c.replicas = c.ds.productReplicas(sr.Key())
			c.from = nil
			c.inSubrun = true
			return true
		}
		if c.srs != nil {
			if err := c.srs.Err(); err != nil {
				c.err = err
				return false
			}
			c.srs = nil
		}
		if !c.runs.Next() {
			c.err = c.runs.Err()
			c.done = true
			return false
		}
		run := c.runs.Run()
		c.curRun = run.Number()
		c.srs = run.SubRunCursor(c.ctx, 0)
	}
}

// fetch issues one scan RPC for the current subrun and decodes the reply.
// It returns false when the subrun is drained (or on error, with c.err
// set); surviving rows may still be empty on a true return.
func (c *ScanCursor) fetch() bool {
	sp := c.ds.tracer.Start("core:scan", obs.KindInternal, obs.SpanFromContext(c.ctx), "")
	res, err := c.ds.scanFO(c.ctx, c.replicas, yokan.ScanRequest{
		Group: c.group,
		Pred:  c.pred,
		Cols:  c.cols,
		Hi:    ^uint64(0),
		From:  c.from,
	})
	sp.End(err)
	if err != nil {
		c.err = err
		return false
	}
	c.stats.Requests++
	c.stats.PagesScanned += res.PagesScanned
	c.stats.RowsScanned += res.RowsScanned
	c.stats.RowsMatched += res.RowsMatched
	c.stats.FullBytes += res.FullBytes
	c.stats.ReturnedBytes += res.ReturnedBytes
	c.from = res.More
	if len(res.More) == 0 {
		c.inSubrun = false
	}
	c.events = res.Events
	c.gStart, c.gEnd = 0, 0
	if len(res.Events) == 0 {
		c.decoded = reflect.Value{}
		return c.inSubrun
	}
	// Reassemble the projected columns into []T with only the requested
	// fields populated; per-event groups are then subslices.
	byField := make([][]byte, c.schema.NumFields())
	for i, f := range c.cols {
		byField[f] = res.Cols[i]
	}
	out := reflect.New(c.slice)
	if derr := c.schema.UnmarshalColumns(byField, len(res.Events), out.Interface()); derr != nil {
		c.err = fmt.Errorf("hepnos: scan decode: %w", derr)
		return false
	}
	c.decoded = out.Elem()
	return true
}

// EventID returns the current event's coordinates.
func (c *ScanCursor) EventID() EventID {
	return EventID{Run: c.curRun, SubRun: c.curSub, Event: c.events[c.gStart]}
}

// NumRows returns how many rows of the current event survived the
// predicate.
func (c *ScanCursor) NumRows() int { return c.gEnd - c.gStart }

// Rows stores the current event's surviving rows into out, a pointer to
// the product slice type (e.g. *[]nova.Slice). Only the requested columns
// are populated; the slice aliases the cursor's decode buffer and is valid
// until the next Next call.
func (c *ScanCursor) Rows(out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Elem().Type() != c.slice {
		return fmt.Errorf("hepnos: scan rows: out must be *%s", c.slice)
	}
	rv.Elem().Set(c.decoded.Slice(c.gStart, c.gEnd))
	return nil
}

// Stats returns the accounting accumulated so far.
func (c *ScanCursor) Stats() ScanStats { return c.stats }

// Err reports a cursor failure (nil at a clean end).
func (c *ScanCursor) Err() error { return c.err }

// ProductDBCount is one product database's key census, split between
// row-oriented product keys and columnar page keys. Counting needs only
// the keys — values never cross the wire (ListKeys ships keys alone).
type ProductDBCount struct {
	DB    yokan.DBHandle
	Rows  uint64 // row-path product keys
	Pages uint64 // columnar page keys (field pages + row metas)
}

// ProductCounts censuses every product database of the service: per-DB
// counts of row products and columnar pages, decoded from key shape alone.
// With replication each replica's database is counted separately, so the
// totals include copies. Used by hepnos-ls.
func (ds *DataStore) ProductCounts(ctx context.Context) ([]ProductDBCount, error) {
	if ds.closed.Load() {
		return nil, ErrClosed
	}
	productDBs := ds.v().ProductDBs
	out := make([]ProductDBCount, 0, len(productDBs))
	for _, db := range productDBs {
		pc := ProductDBCount{DB: db}
		var from []byte
		for {
			page, err := ds.yc.ListKeys(ctx, db, from, nil, listPageSize)
			if err != nil {
				return nil, fmt.Errorf("hepnos: product counts from %s: %w", db, err)
			}
			if len(page) == 0 {
				break
			}
			for _, k := range page {
				if len(k) >= len(pageGroupMarker) && string(k[:len(pageGroupMarker)]) == pageGroupMarker {
					pc.Pages++
				} else {
					pc.Rows++
				}
			}
			from = page[len(page)-1]
		}
		out = append(out, pc)
	}
	return out, nil
}
