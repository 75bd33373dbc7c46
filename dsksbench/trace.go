package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
	"dsks/internal/shard"
)

// tracer records the traced run's spans from outside the program: a
// timing wrapper around server.Server.Handler() and a DB trace hook on
// every database. The run is sequential and single-client, so whatever
// the hooks see while a request is in flight belongs to that request.
type tracer struct {
	on      atomic.Bool
	mu      sync.Mutex
	handler time.Duration
	legs    []dsks.Trace
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		t.mu.Lock()
		t.handler = d
		t.mu.Unlock()
	})
}

func (t *tracer) hook(_ dsks.QueryKind, tr dsks.Trace) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.legs = append(t.legs, tr)
	t.mu.Unlock()
}

// take returns and clears what the last request recorded.
func (t *tracer) take() (time.Duration, []dsks.Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, legs := t.handler, t.legs
	t.handler, t.legs = 0, nil
	return h, legs
}

// counterDelta is the work one request caused in the backend's registries.
type counterDelta struct {
	logical, disk map[string]int64 // per buffer pool
	legs, pruned  int64            // router fan-out legs sent and pruned
}

func diffCounters(a, b dsks.MetricsSnapshot) counterDelta {
	d := counterDelta{logical: map[string]int64{}, disk: map[string]int64{}}
	for name, p := range b.Pools {
		d.logical[name] = p.LogicalReads - a.Pools[name].LogicalReads
		d.disk[name] = p.DiskReads - a.Pools[name].DiskReads
	}
	d.legs = b.Counters[shard.CounterFanoutLegs] - a.Counters[shard.CounterFanoutLegs]
	d.pruned = b.Counters[shard.CounterPrunedLegs] - a.Counters[shard.CounterPrunedLegs]
	return d
}

// tracedPass runs one client sequentially for dur. Odd operations are
// traced: the view pin is timed, the registries are read before and
// after, and the handler wrapper and DB hooks record spans. Even
// operations run untraced, so the two halves give the tracing overhead
// over the same traffic. An executed read's SearchStats come from the
// library: the pool answers on one node, and on the shard set a replay
// through a MultiView right after the response.
func tracedPass(d *driver, t *tracer, gen func(int64) op, dur time.Duration) []sample {
	ctx := context.Background()
	c := &client{d: d, kept: map[answerKey]bool{}}
	start := time.Now()
	for time.Since(start) < dur {
		i := d.next.Add(1) - 1
		o := gen(i)
		if i%2 == 0 {
			c.out = append(c.out, c.do(o))
			continue
		}
		var pin time.Duration
		t0 := time.Now()
		if v, err := d.st.view(ctx); err == nil {
			pin = time.Since(t0)
			v.Close()
		}
		before := d.st.counters()
		t.take()
		t.on.Store(true)
		s := c.do(o)
		t.on.Store(false)
		after := d.st.counters()
		sp := &span{pinned: pin, delta: diffCounters(before, after)}
		sp.handler, sp.legs = t.take()
		s.span = sp
		if !isWrite(o.kind) && s.status == http.StatusOK && !s.hit {
			if d.st.set != nil {
				sp.work = replay(ctx, d, s)
			} else {
				sp.work = d.expected[s.op.entry].stats
			}
		}
		c.out = append(c.out, s)
	}
	return c.out
}

// replay runs an executed read again through a MultiView of the live set
// and returns its SearchStats. No write can land between the response
// and the replay, so the replayed answer must equal the served one.
func replay(ctx context.Context, d *driver, s sample) dsks.SearchStats {
	q := d.gen.queries[s.op.entry]
	v, err := d.st.view(ctx)
	if err != nil {
		d.violate("replay view: %v", err)
		return dsks.SearchStats{}
	}
	defer v.Close()
	res, err := v.run(ctx, q)
	if err != nil {
		d.violate("replay %s: %v", q.url, err)
		return dsks.SearchStats{}
	}
	if w, err := decode(s.body); err != nil || w.answer() != libraryAnswer(q.kind, res) {
		d.violate("served answer differs from the library at the same LSNs: %s", q.url)
	}
	return res.Stats
}
