package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
)

// sample is one request's outcome.
type sample struct {
	op     op
	status int           // HTTP status; 0 = transport error
	rt     time.Duration // round trip, from send to the last byte
	lat    time.Duration // open loop: from the scheduled send (see openLoop); else rt
	late   time.Duration // open loop: how late the request left
	hit    bool          // served from the result cache
	hash   uint64        // read responses: answerHash of the body
	body   []byte        // read responses not yet verified (see driver.verify)
	nbytes int
	span   *span // the traced run's spans and counts; nil if untraced
}

// span is what the traced run records around one traced request.
type span struct {
	handler time.Duration
	legs    []dsks.Trace
	work    dsks.SearchStats
	pinned  time.Duration
	delta   counterDelta
}

// client is one of the benchmark's connections: it issues operations
// sequentially, so the commit tokens of its own acked writes must rise.
type client struct {
	d       *driver
	lastLSN uint64
	out     []sample
	kept    map[answerKey]bool // responses this client keeps for verify
	free    time.Time          // open loop: when the last response came back, on the ideal schedule
}

// driver issues generated operations against one stack.
type driver struct {
	st   *stack
	gen  *generator
	http *http.Client
	// The op index streams: warm-up, open-loop and closed-loop
	// operations each walk their own, so a phase split into rounds still
	// walks one contiguous stretch of its sequence.
	warm, open, closed, next atomic.Int64

	// expected is the library's answer per pool entry on one node (nil
	// on the shard set). verified maps each distinct response checked so
	// far to whether it was right; it only changes between phases.
	// keepBodies keeps every read's body after the check (traced run).
	expected   answers
	verified   map[answerKey]bool
	keepBodies bool

	mu         sync.Mutex
	bank       []dsks.ObjectID      // acked inserts removes may target
	inserted   map[dsks.ObjectID]op // every acked insert
	removed    map[dsks.ObjectID]bool
	violations []string // write-path invariant violations
}

func newDriver(st *stack, gen *generator, expected answers, conns int) *driver {
	d := &driver{
		st:       st,
		gen:      gen,
		expected: expected,
		verified: map[answerKey]bool{},
		http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		inserted: map[dsks.ObjectID]op{},
		removed:  map[dsks.ObjectID]bool{},
	}
	// Each stream starts on a whole number of pool passes, so under
	// uniform popularity its first pass sends every pool query once.
	d.closed.Store(gen.pass() << 20)
	d.warm.Store(2 * gen.pass() << 20)
	return d
}

func (d *driver) violate(format string, args ...any) {
	d.mu.Lock()
	d.violations = append(d.violations, fmt.Sprintf(format, args...))
	d.mu.Unlock()
}

// do issues op o and records it. A remove with no acked insert left to
// target is sent as an insert instead.
func (c *client) do(o op) sample {
	d := c.d
	var req *http.Request
	var err error
	var target dsks.ObjectID
	if o.kind == kRemove {
		d.mu.Lock()
		if n := len(d.bank); n > 0 {
			target = d.bank[n-1]
			d.bank = d.bank[:n-1]
		} else {
			o.kind = kInsert
		}
		d.mu.Unlock()
	}
	switch o.kind {
	case kInsert:
		w := d.gen.writes[o.pos]
		body, _ := json.Marshal(map[string]any{"edge": w.Pos.Edge, "offset": w.Pos.Offset, "terms": w.Terms})
		req, err = http.NewRequest(http.MethodPost, d.st.base+"/v1/insert", bytes.NewReader(body))
	case kRemove:
		body, _ := json.Marshal(map[string]any{"id": target})
		req, err = http.NewRequest(http.MethodPost, d.st.base+"/v1/remove", bytes.NewReader(body))
	default:
		req, err = http.NewRequest(http.MethodGet, d.st.base+d.gen.queries[o.entry].url, nil)
	}
	s := sample{op: o}
	if err != nil {
		return s
	}
	start := time.Now()
	resp, err := d.http.Do(req)
	if err != nil {
		s.rt = time.Since(start)
		s.lat = s.rt
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.rt = time.Since(start)
	s.lat = s.rt
	if err != nil {
		return s
	}
	s.status = resp.StatusCode
	s.nbytes = len(body)
	s.hit = resp.Header.Get("X-Dsks-Cache") == "hit"
	if !isWrite(o.kind) {
		// A body is kept for verify only the first time this client sees
		// it in this phase, and only if it was not checked before.
		s.hash = answerHash(body)
		k := answerKey{o.entry, s.hash}
		if _, done := d.verified[k]; d.keepBodies || !done && !c.kept[k] {
			s.body = body
			c.kept[k] = true
		}
		return s
	}
	if s.status != http.StatusOK {
		return s
	}
	var ack struct {
		ID  dsks.ObjectID `json:"id"`
		LSN uint64        `json:"lsn"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		d.violate("%s ack %q: %v", o.kind, body, err)
		s.status = -1
		return s
	}
	if ack.LSN <= c.lastLSN {
		d.violate("client saw commit token %d after %d", ack.LSN, c.lastLSN)
	}
	c.lastLSN = ack.LSN
	d.mu.Lock()
	if o.kind == kInsert {
		d.bank = append(d.bank, ack.ID)
		d.inserted[ack.ID] = o
	} else {
		d.removed[target] = true
	}
	d.mu.Unlock()
	return s
}

// closedLoop runs n clients back to back, each sending its next
// operation as soon as the previous one is answered: for dur, or, when
// count > 0, until count operations have been sent.
func (d *driver) closedLoop(gen func(int64) op, next *atomic.Int64, n int, dur time.Duration, count int64) ([]sample, time.Duration) {
	start := time.Now()
	end := next.Load() + count
	out := d.parallel(n, func(c *client) {
		for count > 0 || time.Since(start) < dur {
			i := next.Add(1) - 1
			if count > 0 && i >= end {
				return
			}
			c.out = append(c.out, c.do(gen(i)))
		}
	})
	if count > 0 {
		next.Store(end)
	}
	return out, time.Since(start)
}

// openLoop offers operations at a fixed rate for dur over n connections.
// Each request is timed from when it was due: its latency is the wait
// for its connection plus its round trip. The wait is taken on the
// schedule the generator should have kept, in which every request left
// exactly when it was due or, if its connection was still busy, exactly
// when the connection's previous request came back. A slow response then
// charges the requests queued behind it, but the sender's own error does
// not: the sleep that paces it overshoots by up to a timer tick (about
// 1 ms on Linux), and that delay is the generator's, not the server's.
// late is how far each send really fell behind the schedule.
func (d *driver) openLoop(gen func(int64) op, next *atomic.Int64, n int, dur time.Duration, rate float64) []sample {
	total := int64(math.Round(dur.Seconds() * rate))
	interval := time.Duration(float64(time.Second) / rate)
	base := next.Add(total) - total
	var k atomic.Int64
	start := time.Now()
	out := d.parallel(n, func(c *client) {
		for {
			i := k.Add(1) - 1
			if i >= total {
				return
			}
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			s := c.do(gen(base + i))
			s.late = time.Since(due) - s.rt
			sent := due
			if c.free.After(due) {
				sent = c.free
			}
			c.free = sent.Add(s.rt)
			s.lat = c.free.Sub(due)
			c.out = append(c.out, s)
		}
	})
	return out
}

// parallel runs body on n clients and gathers their samples.
func (d *driver) parallel(n int, body func(c *client)) []sample {
	clients := make([]*client, n)
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = &client{d: d, kept: map[answerKey]bool{}}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			body(c)
		}(clients[i])
	}
	wg.Wait()
	var out []sample
	for _, c := range clients {
		out = append(out, c.out...)
	}
	return out
}
