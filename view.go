package dsks

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"dsks/internal/core"
	"dsks/internal/index"
	"dsks/internal/invindex"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

// ErrViewClosed reports a query on a View after Close.
var ErrViewClosed = errors.New("dsks: view closed")

// dbRoots is one published version of the database: the commit LSN that
// produced it, the live-object count, and the index root sets. A published
// dbRoots (and everything it points to) is immutable; mutators build a new
// one from copies and install it with a single atomic pointer swap.
type dbRoots struct {
	lsn  uint64
	live int
	// inv is the inverted-file root set (IF, SIF, SIF-P); nil for index
	// kinds without a versioned inverted file (IR), which are immutable
	// after build and need no versioning.
	inv *invindex.Roots
	// sif is the signature root set (SIF, SIF-P); nil otherwise.
	sif *sig.Roots
}

// View is a consistent read-only snapshot of the database, pinned at the
// commit LSN current when it was opened. Every query method — Search,
// SearchDiversified, SearchKNN, SearchRanked, SearchCollective, Stream,
// NetworkDistance — runs entirely against that snapshot, latch-free:
// concurrent Insert/Remove calls publish new versions without ever
// blocking the view's queries, and none of their effects are visible
// through it. Multiple queries on one view observe the same LSN, giving
// multi-query consistency (e.g. paginating with repeated searches, or
// caching results keyed on LSN).
//
// A View is safe for concurrent use. Close releases the pin; the storage
// layer reclaims superseded page versions only once the last view pinning
// them closes, so forgetting Close leaks version-overlay memory (but never
// corrupts anything). Queries on a closed view fail with ErrViewClosed.
type View struct {
	db     *DB
	roots  *dbRoots
	loader index.Loader
	ul     index.UnionLoader // nil when the index lacks OR-semantics loads
	closed atomic.Bool
}

// View opens a read view pinned at the current commit LSN. It never blocks
// on the writer: the root set is loaded with an atomic pointer read and
// pinned in the epoch registry (retrying only in the rare race where the
// loaded version was reclaimed between load and pin). Because opening
// never blocks, the context is not consulted here; it is accepted so call
// sites thread one uniformly, and every query on the view honors its own
// context (a view opened under an already-canceled context opens fine and
// fails at the first query, with the cancellation recorded in metrics).
//
// The caller must Close the view when done with it.
func (db *DB) View(ctx context.Context) (*View, error) {
	_ = ctx
	var r *dbRoots
	for {
		r = db.roots.Load()
		if db.epochs.Pin(r.lsn) {
			break
		}
		// The loaded root set was folded away before we pinned it; the
		// current one is always pinnable, so reload and retry.
	}
	loader, err := db.loaderAt(r)
	if err != nil {
		db.epochs.Unpin(r.lsn)
		return nil, err
	}
	v := &View{db: db, roots: r, loader: loader}
	if ul, ok := loader.(index.UnionLoader); ok {
		v.ul = ul
	}
	return v, nil
}

// loaderAt binds the index's query logic to the root snapshot r and a page
// view pinned at r.lsn. Index kinds without versioned roots (IR) are
// immutable after build and read the shared pool directly.
func (db *DB) loaderAt(r *dbRoots) (index.Loader, error) {
	pool := db.sys.ObjPool(db.kind)
	var pr storage.PageReader = pool
	if pool != nil {
		pr = pool.ViewAt(r.lsn)
	}
	switch db.kind {
	case IndexSIF:
		if r.inv != nil && r.sif != nil {
			return db.sys.SIF.ReaderAt(pr, r.inv, r.sif), nil
		}
	case IndexSIFP:
		if r.inv != nil && r.sif != nil {
			return db.sys.SIFP.ReaderAt(pr, r.inv, r.sif), nil
		}
	case IndexIF:
		if r.inv != nil {
			l, err := db.sys.Loader(db.kind)
			if err != nil {
				return nil, err
			}
			if il, ok := l.(*invindex.Loader); ok {
				return il.At(pr, r.inv), nil
			}
		}
	}
	return db.sys.Loader(db.kind)
}

// Close releases the view's pin on its LSN. Idempotent; after the first
// call every query method fails with ErrViewClosed. Closing the last view
// pinned at an old LSN lets the storage layer fold superseded page
// versions back into the base file.
func (v *View) Close() {
	if v.closed.Swap(true) {
		return
	}
	v.db.epochs.Unpin(v.roots.lsn)
	v.db.reclaim()
}

// LSN returns the commit LSN the view is pinned at: the WAL LSN of the
// last mutation visible through it (databases without a WAL count
// mutations on the same clock). Two views with equal LSNs observe
// identical data.
func (v *View) LSN() uint64 { return v.roots.lsn }

// LiveObjects returns the number of live objects visible in this view.
func (v *View) LiveObjects() int { return v.roots.live }

// guard validates the view and the query envelope.
func (v *View) guard(pos Position, terms []TermID) error {
	if v.closed.Load() {
		return ErrViewClosed
	}
	return v.db.checkQuery(pos, terms)
}

// Search runs a boolean spatial keyword query against the view's snapshot:
// all objects within q.DeltaMax network distance containing every keyword
// of q.Terms, in non-decreasing distance order.
func (v *View) Search(ctx context.Context, q SKQuery) (Result, error) {
	if err := v.guard(q.Pos, q.Terms); err != nil {
		return Result{}, err
	}
	r, err := v.db.sys.RunSKOn(ctx, v.db.kind, v.loader, q)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Candidates: r.Candidates,
		Elapsed:    r.Elapsed,
		DiskReads:  r.DiskReads,
		Stats:      r.Stats,
		Trace:      r.Trace,
	}, nil
}

// SearchDiversified runs a diversified spatial keyword query with the
// incremental COM algorithm against the view's snapshot.
func (v *View) SearchDiversified(ctx context.Context, q DivQuery) (Result, error) {
	return v.SearchDiversifiedWith(ctx, AlgoCOM, q)
}

// SearchDiversifiedWith is SearchDiversified with an explicit algorithm
// choice (COM or the SEQ baseline).
func (v *View) SearchDiversifiedWith(ctx context.Context, algo Algo, q DivQuery) (Result, error) {
	if err := v.guard(q.Pos, q.Terms); err != nil {
		return Result{}, err
	}
	r, err := v.db.sys.RunDivOn(ctx, v.db.kind, v.loader, algo, q)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Candidates: r.Div.Objects,
		F:          r.Div.F,
		Elapsed:    r.Elapsed,
		DiskReads:  r.DiskReads,
		Stats:      r.Stats,
		Trace:      r.Trace,
	}, nil
}

// SearchKNN returns the k nearest objects containing every query keyword,
// in non-decreasing network distance, against the view's snapshot.
func (v *View) SearchKNN(ctx context.Context, q KNNQuery) (Result, error) {
	if err := v.guard(q.Pos, q.Terms); err != nil {
		return Result{}, err
	}
	r, err := v.db.sys.RunKNNOn(ctx, v.db.kind, v.loader, q)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Candidates: r.Candidates,
		Elapsed:    r.Elapsed,
		DiskReads:  r.DiskReads,
		Stats:      r.Stats,
		Trace:      r.Trace,
	}, nil
}

// SearchRanked runs the top-k ranked spatial keyword query against the
// view's snapshot. It requires an index with OR-semantics support (IF, SIF
// or SIF-P); others fail with an error matching ErrUnsupportedIndex.
func (v *View) SearchRanked(ctx context.Context, q RankedQuery) (Result, error) {
	if v.ul == nil {
		return Result{}, errUnsupportedQuery("ranked", v.db.kind)
	}
	if err := v.guard(q.Pos, q.Terms); err != nil {
		return Result{}, err
	}
	r, err := v.db.sys.RunRankedOn(ctx, v.db.kind, v.ul, q)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Ranked:    r.Ranked,
		Elapsed:   r.Elapsed,
		DiskReads: r.DiskReads,
		Stats:     r.Stats,
		Trace:     r.Trace,
	}, nil
}

// SearchCollective finds a keyword-covering group against the view's
// snapshot. It requires an index with OR-semantics support (IF, SIF or
// SIF-P); others fail with an error matching ErrUnsupportedIndex.
func (v *View) SearchCollective(ctx context.Context, q CollectiveQuery) (Result, error) {
	if v.ul == nil {
		return Result{}, errUnsupportedQuery("collective", v.db.kind)
	}
	if err := v.guard(q.Pos, q.Terms); err != nil {
		return Result{}, err
	}
	r, err := v.db.sys.RunCollectiveOn(ctx, v.db.kind, v.ul, q)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Collective: r.Collective,
		Elapsed:    r.Elapsed,
		DiskReads:  r.DiskReads,
		Stats:      r.Stats,
		Trace:      r.Trace,
	}, nil
}

// Stream starts an incremental boolean search against the view's snapshot;
// the context is checked on every Next. The view must stay open for the
// stream's lifetime (the stream reads the view's pinned pages).
func (v *View) Stream(ctx context.Context, q SKQuery) (*Stream, error) {
	if err := v.guard(q.Pos, q.Terms); err != nil {
		return nil, err
	}
	before := v.db.sys.DiskReads(v.db.kind)
	start := time.Now()
	s, err := core.NewSKSearch(ctx, v.db.sys.Net, v.loader, q)
	if err != nil {
		return nil, err
	}
	return &Stream{search: s, sys: v.db.sys, kind: v.db.kind, start: start, before: before}, nil
}

// NetworkDistance returns the exact network distance between two
// positions, computed in memory (the road network is immutable, so this
// is identical across views). A pair no chain of road segments connects
// fails with an error matching ErrNoPath, a done context with one matching
// ErrCanceled or ErrDeadlineExceeded, and a position on an edge outside
// the network with one matching ErrUnknownEdge.
func (v *View) NetworkDistance(ctx context.Context, a, b Position) (float64, error) {
	if v.closed.Load() {
		return 0, ErrViewClosed
	}
	if err := core.CtxErr(ctx); err != nil {
		return 0, err
	}
	g := v.db.sys.DS.Graph
	for _, p := range [2]Position{a, b} {
		if p.Edge < 0 || int(p.Edge) >= g.NumEdges() {
			return 0, fmt.Errorf("dsks: network distance at edge %d: %w", p.Edge, ErrUnknownEdge)
		}
	}
	d := g.NetworkDist(a, b)
	if math.IsInf(d, 1) {
		return 0, fmt.Errorf("dsks: network distance between edges %d and %d: %w", a.Edge, b.Edge, ErrNoPath)
	}
	return d, nil
}
