package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
	"dsks/internal/metrics"
)

// KindMerge labels the router's merge-phase latency samples in the
// set's metrics registry.
const KindMerge = metrics.KindMerge

// ShardError is one failed fan-out leg in a result envelope.
type ShardError struct {
	Shard int    `json:"shard"`
	Err   string `json:"error"`
}

// Meta describes how the last query on a MultiView was executed: the
// pinned per-shard LSN vector, which shards were actually queried, how
// many legs routing pruned, and — under the partial-result policy —
// which legs failed.
type Meta struct {
	LSNs    []uint64     `json:"lsns"`
	Queried []int        `json:"queried"`
	Pruned  int          `json:"pruned"`
	Partial bool         `json:"partial,omitempty"`
	Errors  []ShardError `json:"shardErrors,omitempty"`
}

// srcPrimary marks a leg pinned on its shard's primary; non-negative
// values are the index of the replica pinned instead (primary was
// unpinnable at View time).
const srcPrimary int8 = -1

// MultiView is a pinned read view over every shard: one dsks.View per
// shard, all pinned before the first result is read, so one request sees
// one consistent per-shard LSN vector. Unlike dsks.View it serves one
// request at a time: every query rewrites mv.meta (the execution record
// Meta returns), so methods must not be called concurrently on the same
// MultiView.
type MultiView struct {
	set   *Set
	views []*dsks.View
	lsns  []uint64
	// srcs records, per shard, which database the pinned view belongs
	// to (srcPrimary or a replica index); nil on sets built before
	// replication existed only in tests that construct MultiView by
	// hand.
	srcs   []int8
	meta   Meta
	closed atomic.Bool
}

// LSNs is the pinned per-shard commit LSN vector.
func (mv *MultiView) LSNs() []uint64 { return mv.lsns }

// Meta reports how the most recent query on this view was executed.
func (mv *MultiView) Meta() Meta { return mv.meta }

// LiveObjects sums the pinned views' live object counts.
func (mv *MultiView) LiveObjects() int {
	total := 0
	for _, v := range mv.views {
		total += v.LiveObjects()
	}
	return total
}

// Close closes every per-shard view. Idempotent.
func (mv *MultiView) Close() {
	if mv.closed.Swap(true) {
		return
	}
	for _, v := range mv.views {
		if v != nil {
			v.Close()
		}
	}
}

// leg is one fan-out leg's outcome.
type leg struct {
	shard int
	res   dsks.Result
	err   error
}

// clientClass reports an error the query itself caused (or its context):
// identical on every shard, never a reason to mark a shard down.
func clientClass(err error) bool {
	return errors.Is(err, dsks.ErrCanceled) ||
		errors.Is(err, dsks.ErrDeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, dsks.ErrUnknownEdge) ||
		errors.Is(err, dsks.ErrTermOutOfRange) ||
		errors.Is(err, dsks.ErrUnsupportedIndex) ||
		errors.Is(err, dsks.ErrNoPath) ||
		errors.Is(err, dsks.ErrViewClosed)
}

// legError classifies and wraps one leg's failure.
func legError(shard int, err error) error {
	if clientClass(err) {
		return err
	}
	return fmt.Errorf("shard: shard %d: %w: %w", shard, ErrShardDown, err)
}

// fanout scatters run over the routed shards with bounded concurrency.
// Cancellation propagates: under first-error-wins (the default), the
// first shard-down failure cancels every sibling leg in flight. A panic
// inside a leg is recovered into an ErrShardDown-class error for that
// leg — it never tears down the request, and the sibling views stay
// owned by the MultiView (closed by Close on every path).
func (mv *MultiView) fanout(ctx context.Context, targets []int,
	run func(ctx context.Context, v *dsks.View) (dsks.Result, error)) []leg {

	s := mv.set
	s.legsTotal.Add(int64(len(targets)))
	s.pruneTotal.Add(int64(len(mv.views) - len(targets)))

	legs := make([]leg, len(targets))
	if len(targets) == 0 {
		return legs
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	limit := s.fanout
	if limit <= 0 || limit > len(targets) {
		limit = len(targets)
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for k, si := range targets {
		legs[k].shard = si
		wg.Add(1)
		go func(k, si int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					legs[k].err = fmt.Errorf("shard: shard %d: %w: panic: %v", si, ErrShardDown, r)
					if !s.partial {
						cancel()
					}
				}
			}()
			select {
			case sem <- struct{}{}:
			case <-fctx.Done():
				legs[k].err = fmt.Errorf("shard: leg for shard %d aborted: %w: %w", si, dsks.ErrCanceled, fctx.Err())
				return
			}
			defer func() { <-sem }()
			s.shards[si].reqs.Add(1)
			res, err := mv.runLeg(fctx, si, run)
			legs[k].res, legs[k].err = res, err
			if err != nil {
				s.shards[si].errs.Add(1)
				legs[k].err = legError(si, err)
				if !s.partial && !clientClass(err) {
					cancel()
				}
			}
		}(k, si)
	}
	wg.Wait()
	return legs
}

// legFunc runs one query against one pinned view.
type legFunc func(ctx context.Context, v *dsks.View) (dsks.Result, error)

// Per-leg retry backoff: small enough to fit several attempts inside a
// request timeout, jittered so concurrent legs don't retry in lockstep.
const (
	legRetryBase = 2 * time.Millisecond
	legRetryCap  = 50 * time.Millisecond
)

// runLeg executes one fan-out leg under the failover protocol:
//
//   - a leg already pinned on a replica (the primary was unpinnable at
//     View time), or a shard with no replicas, just runs its view;
//   - a primary marked down serves from the freshest replica within the
//     staleness bound, except for one recovery probe per cooldown
//     window, which tries the primary (and heals it on success);
//   - a healthy primary runs with capped-backoff retries on transient
//     errors; if it outlives the hedging delay, a replica leg races it
//     and the first answer wins; if it fails for good, the leg fails
//     over to a replica before giving up.
//
// Health accounting mirrors the server breaker: only shard-class errors
// count against the primary — client-class errors (bad query, canceled
// context) are the request's fault and stay neutral.
func (mv *MultiView) runLeg(ctx context.Context, si int, run legFunc) (dsks.Result, error) {
	s := mv.set
	st := &s.shards[si]
	if (mv.srcs != nil && mv.srcs[si] != srcPrimary) || len(st.replicas) == 0 {
		return run(ctx, mv.views[si])
	}
	probe, ok := st.health.allowPrimary()
	if !ok {
		s.failTotal.Add(1)
		return mv.replicaLeg(ctx, si, run)
	}
	retries := s.legRetries
	if probe {
		// A probe decides health as fast as possible: no retries.
		retries = 0
	}
	return mv.racePrimary(ctx, si, run, retries)
}

// legOutcome is one side's result in the primary/replica race.
type legOutcome struct {
	res     dsks.Result
	err     error
	primary bool
}

// racePrimary runs the primary leg (with retries) and, when hedging
// fires or the primary fails, a replica leg, returning whichever
// answers first. The losing side is canceled through the shared
// context; its outcome drains into the buffered channel.
func (mv *MultiView) racePrimary(ctx context.Context, si int, run legFunc, retries int) (dsks.Result, error) {
	s := mv.set
	st := &s.shards[si]
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan legOutcome, 2)

	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- legOutcome{err: fmt.Errorf("shard: shard %d: %w: panic: %v", si, ErrShardDown, r), primary: true}
			}
		}()
		bo := Backoff{Base: legRetryBase, Cap: legRetryCap, Seed: s.seed ^ splitmix64(uint64(si))}
		for attempt := 0; ; attempt++ {
			res, err := run(pctx, mv.views[si])
			if err == nil || clientClass(err) || attempt >= retries {
				ch <- legOutcome{res: res, err: err, primary: true}
				return
			}
			s.retryTotal.Add(1)
			t := time.NewTimer(bo.Delay(attempt))
			select {
			case <-pctx.Done():
				t.Stop()
				ch <- legOutcome{err: err, primary: true}
				return
			case <-t.C:
			}
		}
	}()

	var hedgeC <-chan time.Time
	if s.hedgeAfter > 0 {
		ht := time.NewTimer(s.hedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}
	launched := false
	launch := func() {
		launched = true
		go func() {
			defer func() {
				if r := recover(); r != nil {
					ch <- legOutcome{err: fmt.Errorf("shard: shard %d replica leg: %w: panic: %v", si, ErrShardDown, r)}
				}
			}()
			res, err := mv.replicaLeg(pctx, si, run)
			ch <- legOutcome{res: res, err: err}
		}()
	}

	var pErr, rErr error
	pDone, rDone := false, false
	for {
		select {
		case out := <-ch:
			if out.primary {
				pDone = true
				if out.err == nil {
					st.health.recordSuccess()
					return out.res, nil
				}
				if clientClass(out.err) {
					return out.res, out.err
				}
				st.health.recordFailure()
				pErr = out.err
				if !launched {
					s.failTotal.Add(1)
					launch()
				}
			} else {
				rDone = true
				if out.err == nil {
					return out.res, nil
				}
				rErr = out.err
			}
			if pDone && (rDone || !launched) {
				if rErr != nil {
					return dsks.Result{}, fmt.Errorf("%w; failover: %w", pErr, rErr)
				}
				return dsks.Result{}, pErr
			}
		case <-hedgeC:
			hedgeC = nil
			if !launched {
				s.hedgeTotal.Add(1)
				launch()
			}
		}
	}
}

// replicaLeg serves one leg from the shard's freshest live replica
// within the staleness bound of the LSN this request pinned. The
// replica view is pinned here and closed on every path — it lives
// exactly as long as the leg.
func (mv *MultiView) replicaLeg(ctx context.Context, si int, run legFunc) (dsks.Result, error) {
	s := mv.set
	rep, err := s.freshestReplica(si, mv.lsns[si])
	if err != nil {
		return dsks.Result{}, err
	}
	rv, err := rep.View(ctx)
	if err != nil {
		return dsks.Result{}, fmt.Errorf("shard: pinning replica %d of shard %d: %w", rep.idx, si, err)
	}
	defer rv.Close()
	return run(ctx, rv)
}

// gather applies the failure policy to a fan-out's legs. It returns the
// successful legs plus the request error: nil when everything succeeded,
// the primary failure under first-error-wins (or when every leg failed),
// and an ErrPartialResult-wrapped primary when the partial-result policy
// salvaged a strict subset. Cancellation legs never mask a real failure.
func (mv *MultiView) gather(targets []int, legs []leg) ([]leg, error) {
	var primary, canceled error
	var ok []leg
	var fails []ShardError
	for _, l := range legs {
		switch {
		case l.err == nil:
			ok = append(ok, l)
		case errors.Is(l.err, dsks.ErrCanceled) || errors.Is(l.err, dsks.ErrDeadlineExceeded):
			if canceled == nil {
				canceled = l.err
			}
			fails = append(fails, ShardError{Shard: l.shard, Err: l.err.Error()})
		default:
			if primary == nil {
				primary = l.err
			}
			fails = append(fails, ShardError{Shard: l.shard, Err: l.err.Error()})
		}
	}
	if primary == nil {
		primary = canceled
	}
	mv.meta = Meta{LSNs: mv.lsns, Queried: targets, Pruned: len(mv.views) - len(targets)}
	if primary == nil {
		return ok, nil
	}
	// A client-class error (bad query, canceled context) fails the
	// request whole under either policy: every leg saw the same query.
	if !mv.set.partial || len(ok) == 0 || clientClass(primary) {
		return nil, primary
	}
	mv.set.partTotal.Add(1)
	mv.meta.Partial = true
	mv.meta.Errors = fails
	return ok, fmt.Errorf("%w: %d of %d legs failed: %w", ErrPartialResult, len(fails), len(targets), primary)
}

// scatter = route + fanout + gather, the common head of every query.
func (mv *MultiView) scatter(ctx context.Context, pos dsks.Position, radius float64,
	terms []dsks.TermID, allTerms bool,
	run func(ctx context.Context, v *dsks.View) (dsks.Result, error)) ([]leg, error) {

	if mv.closed.Load() {
		return nil, dsks.ErrViewClosed
	}
	if err := mv.set.guard(pos, terms); err != nil {
		return nil, err
	}
	targets := mv.set.routed(pos, radius, terms, allTerms)
	legs := mv.fanout(ctx, targets, run)
	return mv.gather(targets, legs)
}

// finish stamps the merged result with the request wall time and records
// the merge-phase latency in the router registry.
func (mv *MultiView) finish(res *dsks.Result, start, mergeStart time.Time, err error) {
	res.Elapsed = time.Since(start)
	mv.set.reg.Record(KindMerge, metrics.Sample{
		Elapsed:    time.Since(mergeStart),
		Err:        err != nil && !errors.Is(err, ErrPartialResult),
		Candidates: int64(len(res.Candidates) + len(res.Ranked)),
		DiskReads:  res.DiskReads,
	})
}
