package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dsks"
	"dsks/internal/shard"
)

// reader is the query surface the benchmark replays reads through: a
// pinned dsks.View, or a shard.MultiView on the sharded backend.
type reader interface {
	run(ctx context.Context, q query) (dsks.Result, error)
	Close()
}

type dbReader struct{ v *dsks.View }

func (r dbReader) Close() { r.v.Close() }

func (r dbReader) run(ctx context.Context, q query) (dsks.Result, error) {
	sk := dsks.SKQuery{Pos: q.q.Pos, Terms: q.q.Terms, DeltaMax: q.q.DeltaMax}
	switch q.kind {
	case kSearch:
		return r.v.Search(ctx, sk)
	case kDiversified:
		return r.v.SearchDiversifiedWith(ctx, dsks.AlgoCOM, dsks.DivQuery{SKQuery: sk, K: paramK, Lambda: paramLambda})
	case kKNN:
		return r.v.SearchKNN(ctx, dsks.KNNQuery{Pos: sk.Pos, Terms: sk.Terms, K: paramK, MaxDist: sk.DeltaMax})
	case kRanked:
		return r.v.SearchRanked(ctx, dsks.RankedQuery{Pos: sk.Pos, Terms: sk.Terms, K: paramK, Alpha: paramAlpha, DeltaMax: sk.DeltaMax})
	case kCollective:
		return r.v.SearchCollective(ctx, dsks.CollectiveQuery{Pos: sk.Pos, Terms: sk.Terms, DeltaMax: sk.DeltaMax})
	}
	return dsks.Result{}, fmt.Errorf("unknown read kind %q", q.kind)
}

type multiReader struct{ mv *shard.MultiView }

func (r multiReader) Close() { r.mv.Close() }

func (r multiReader) run(ctx context.Context, q query) (dsks.Result, error) {
	sk := dsks.SKQuery{Pos: q.q.Pos, Terms: q.q.Terms, DeltaMax: q.q.DeltaMax}
	switch q.kind {
	case kSearch:
		return r.mv.Search(ctx, sk)
	case kDiversified:
		return r.mv.SearchDiversified(ctx, dsks.DivQuery{SKQuery: sk, K: paramK, Lambda: paramLambda})
	case kKNN:
		return r.mv.SearchKNN(ctx, dsks.KNNQuery{Pos: sk.Pos, Terms: sk.Terms, K: paramK, MaxDist: sk.DeltaMax})
	case kRanked:
		return r.mv.SearchRanked(ctx, dsks.RankedQuery{Pos: sk.Pos, Terms: sk.Terms, K: paramK, Alpha: paramAlpha, DeltaMax: sk.DeltaMax})
	case kCollective:
		return r.mv.SearchCollective(ctx, dsks.CollectiveQuery{Pos: sk.Pos, Terms: sk.Terms, DeltaMax: sk.DeltaMax})
	}
	return dsks.Result{}, fmt.Errorf("unknown read kind %q", q.kind)
}

// wireCand mirrors one candidate of the server's response envelope.
type wireCand struct {
	ID     int64   `json:"id"`
	Edge   int64   `json:"edge"`
	Offset float64 `json:"offset"`
	Dist   float64 `json:"dist"`
}

// wireResp mirrors the server's query response envelope.
type wireResp struct {
	Kind       string     `json:"kind"`
	Candidates []wireCand `json:"candidates"`
	F          float64    `json:"f"`
	Ranked     []struct {
		wireCand
		Matched int     `json:"matched"`
		Score   float64 `json:"score"`
	} `json:"ranked"`
	Collective *struct {
		Objects   []wireCand    `json:"objects"`
		Cost      float64       `json:"cost"`
		Covered   bool          `json:"covered"`
		Uncovered []dsks.TermID `json:"uncovered"`
	} `json:"collective"`
	ElapsedMicros int64 `json:"elapsedMicros"`
}

// answer renders the part of a response that must be identical for
// identical inputs (everything but timings, disk reads and shard
// metadata) in one canonical string.
func (w *wireResp) answer() string {
	var b strings.Builder
	b.WriteString(w.Kind)
	for _, c := range w.Candidates {
		fmt.Fprintf(&b, "|%d@%d+%s=%s", c.ID, c.Edge, ftoa(c.Offset), ftoa(c.Dist))
	}
	fmt.Fprintf(&b, "|f%s", ftoa(w.F))
	for _, r := range w.Ranked {
		fmt.Fprintf(&b, "|%d@%d+%s=%s/%d/%s", r.ID, r.Edge, ftoa(r.Offset), ftoa(r.Dist), r.Matched, ftoa(r.Score))
	}
	if c := w.Collective; c != nil {
		fmt.Fprintf(&b, "|c%s/%t/%v", ftoa(c.Cost), c.Covered, c.Uncovered)
		for _, o := range c.Objects {
			fmt.Fprintf(&b, "|%d@%d+%s=%s", o.ID, o.Edge, ftoa(o.Offset), ftoa(o.Dist))
		}
	}
	return b.String()
}

// libraryAnswer renders a library Result the way answer renders the
// server's envelope for the same query.
func libraryAnswer(kind string, r dsks.Result) string {
	w := wireResp{Kind: kind, F: r.F}
	for _, c := range r.Candidates {
		w.Candidates = append(w.Candidates, wireCand{int64(c.Ref.ID), int64(c.Ref.Edge), c.Ref.Offset, c.Dist})
	}
	for _, rr := range r.Ranked {
		w.Ranked = append(w.Ranked, struct {
			wireCand
			Matched int     `json:"matched"`
			Score   float64 `json:"score"`
		}{wireCand{int64(rr.Ref.ID), int64(rr.Ref.Edge), rr.Ref.Offset, rr.Dist}, rr.Matched, rr.Score})
	}
	if c := r.Collective; c != nil {
		w.Collective = &struct {
			Objects   []wireCand    `json:"objects"`
			Cost      float64       `json:"cost"`
			Covered   bool          `json:"covered"`
			Uncovered []dsks.TermID `json:"uncovered"`
		}{Cost: c.Cost, Covered: c.Covered, Uncovered: c.Uncovered}
		for _, o := range c.Objects {
			w.Collective.Objects = append(w.Collective.Objects, wireCand{int64(o.Ref.ID), int64(o.Ref.Edge), o.Ref.Offset, o.Dist})
		}
	}
	return w.answer()
}

func decode(body []byte) (*wireResp, error) {
	var w wireResp
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &w, nil
}

// structural checks what every correct answer to q satisfies whatever
// version of the data it was computed at: the right kind, distances
// within the query's range, boolean and kNN answers in non-decreasing
// distance, ranked answers in non-increasing score, at most k results,
// and no object twice.
func structural(q query, w *wireResp) error {
	if w.Kind != q.kind {
		return fmt.Errorf("kind %q, want %q", w.Kind, q.kind)
	}
	cands := w.Candidates
	if w.Collective != nil {
		cands = w.Collective.Objects
	}
	for _, r := range w.Ranked {
		cands = append(cands, r.wireCand)
	}
	seen := map[int64]bool{}
	for i, c := range cands {
		if c.Dist < 0 || c.Dist > q.q.DeltaMax {
			return fmt.Errorf("object %d at distance %v outside [0, %v]", c.ID, c.Dist, q.q.DeltaMax)
		}
		if seen[c.ID] {
			return fmt.Errorf("object %d returned twice", c.ID)
		}
		seen[c.ID] = true
		if (q.kind == kSearch || q.kind == kKNN) && i > 0 && c.Dist < cands[i-1].Dist {
			return fmt.Errorf("distances not sorted at %d", i)
		}
	}
	if q.kind != kSearch && q.kind != kCollective && len(cands) > paramK {
		return fmt.Errorf("%d results, k = %d", len(cands), paramK)
	}
	if !sort.SliceIsSorted(w.Ranked, func(i, j int) bool { return w.Ranked[i].Score > w.Ranked[j].Score }) {
		return fmt.Errorf("ranked scores not in non-increasing order")
	}
	return nil
}
