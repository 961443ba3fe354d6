package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fastppv/internal/core"
	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
	"fastppv/internal/prime"
	"fastppv/internal/sparse"
)

// span is one layer's share of one traced query. Spans of a query share its
// Query id; Parent is the id of the span that caused this one, 0 for none.
// The four ways a query is issued run one after another, so a child's
// interval does not lie inside its parent's: Parent records which call would
// have made this one, and self time subtracts durations, not intervals.
type span struct {
	ID      int    `json:"id"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer holds spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(query int, name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Query: query, Name: name, Parent: parent,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the durations of
// the spans it caused. A negative value means the child ran slower on its own
// than inside its parent; callers clamp when they aggregate.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// attached reports whether a span hangs, through its parents, under a root
// named rootName: only those count towards a served request's time.
func attached(byID map[int]span, s span, rootName string) bool {
	for s.Parent != 0 {
		s = byID[s.Parent]
	}
	return s.Name == rootName
}

// layerSelf aggregates self times by layer over the spans attached to an
// http root: the p50 of each layer's per-query self time, and its share of
// the summed http time. A layer with no attached span reads 0.
func layerSelf(spans []span) (p50us, share map[string]float64) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	perLayer := map[string][]float64{}
	var total float64
	for _, s := range spans {
		if !attached(byID, s, "http") {
			continue
		}
		if s.Name == "http" {
			total += float64(s.dur())
		}
		perLayer[s.Name] = append(perLayer[s.Name], math.Max(float64(self[s.ID]), 0))
	}
	p50us, share = map[string]float64{}, map[string]float64{}
	for name, xs := range perLayer {
		p50us[name] = p50(xs) / 1e3
		var sum float64
		for _, x := range xs {
			sum += x
		}
		if total > 0 {
			share[name] = sum / total
		}
	}
	return p50us, share
}

// memWriter is the ResponseWriter of the in-process depth: no socket, no
// chunking, just the bytes the handler produced.
type memWriter struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) reset() {
	w.hdr, w.code = http.Header{}, http.StatusOK
	w.buf.Reset()
}

// inproc serves path through the handler with no socket and reports the
// duration and the cache disposition.
func inproc(h http.Handler, w *memWriter, path string) (time.Time, time.Time, string, error) {
	req, err := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
	if err != nil {
		return time.Time{}, time.Time{}, "", err
	}
	w.reset()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	t1 := time.Now()
	if w.code != http.StatusOK {
		return t0, t1, "", fmt.Errorf("in-process GET %s: status %d: %s", path, w.code, bytes.TrimSpace(w.buf.Bytes()))
	}
	return t0, t1, w.hdr.Get("X-Fastppv-Cache"), nil
}

func queryPath(q graph.NodeID) string {
	return fmt.Sprintf("/v1/ppv?node=%d&eta=%d&top=%d", q, queryEta, queryTop)
}

// replay is the harness's own execution of one query's dependencies: the
// prime PPV of a non-hub source, every hub record the schedule reads, and the
// sparse fold over them — the three leaf layers under core, each timed on
// its own. It follows core.QueryState step for step, so its bound must equal
// the engine's.
type replay struct {
	prime, index, fold time.Duration
	primeStats         prime.Stats
	computed           bool
	// entries is how many (node, score) pairs the fold took in (iteration
	// 0's vector plus everything staged); reads how many hub records were
	// fetched.
	entries, reads int
	bound          float64
}

type frontierHub struct {
	hub    graph.NodeID
	prefix float64
}

// replayBufs is the replay's working set, reused from query to query the way
// the engine's pooled buffers are, so the fold is timed at steady state.
type replayBufs struct {
	acc, inc sparse.Accumulator
	frontier []frontierHub
	expand   []frontierHub
	views    []ppvindex.HubRecordView
	vecs     []sparse.Vector
}

func replayQuery(e *core.Engine, b *replayBufs, q graph.NodeID, eta int) (replay, error) {
	var (
		r        replay
		acc, inc = &b.acc, &b.inc
		opts     = e.Options()
		hubs     = e.Hubs()
		idx      = e.Index()
		views, _ = idx.(ppvindex.ViewGetter)
	)
	// Iteration 0: the source's prime PPV, from the index when it is a hub.
	t := time.Now()
	var (
		stored sparse.Vector
		view   ppvindex.HubRecordView
		have   bool
		err    error
	)
	if views != nil {
		view, have, err = views.GetView(q)
	}
	if err == nil && !have {
		stored, have, err = idx.Get(q)
	}
	if err != nil {
		return r, fmt.Errorf("replay: reading record of %d: %w", q, err)
	}
	if have {
		r.index += time.Since(t)
		r.reads++
	} else {
		t = time.Now()
		stored, r.primeStats, err = prime.ComputePPV(e.Graph(), q, hubs,
			prime.Options{Alpha: opts.Alpha, Epsilon: opts.Epsilon, MaxPushes: opts.MaxPushes})
		if err != nil {
			return r, fmt.Errorf("replay: prime PPV of %d: %w", q, err)
		}
		r.prime, r.computed = time.Since(t), true
	}
	t = time.Now()
	if stored != nil {
		acc.SetVector(stored)
	} else {
		acc.SetEncoded(view.EntryBytes())
		view.Release()
	}
	r.entries = acc.Len()
	frontier := b.frontier[:0]
	for _, en := range acc.Entries() {
		if !hubs.Contains(en.Node) {
			continue
		}
		w := en.Score
		if en.Node == q {
			w -= opts.Alpha
		}
		if w > 0 {
			frontier = append(frontier, frontierHub{en.Node, w})
		}
	}
	mass := acc.Sum()
	r.fold += time.Since(t)

	recViews, recVecs, expand := b.views, b.vecs, b.expand
	defer func() { b.frontier, b.views, b.vecs, b.expand = frontier, recViews, recVecs, expand }()
	for it := 0; it < eta && len(frontier) > 0; it++ {
		// Read every record of the iteration first, then fold them, so each
		// layer is one timed block rather than a clock read per hub.
		recViews, recVecs, expand = recViews[:0], recVecs[:0], expand[:0]
		t = time.Now()
		for _, fe := range frontier {
			if fe.prefix <= opts.Delta {
				continue
			}
			var (
				v  ppvindex.HubRecordView
				ok bool
			)
			if views != nil {
				if v, ok, err = views.GetView(fe.hub); err != nil {
					return r, fmt.Errorf("replay: reading hub %d: %w", fe.hub, err)
				}
			}
			var vec sparse.Vector
			if !ok {
				if vec, ok, err = idx.Get(fe.hub); err != nil || !ok {
					return r, fmt.Errorf("replay: hub %d missing from the index (err %v)", fe.hub, err)
				}
			}
			recViews, recVecs, expand = append(recViews, v), append(recVecs, vec), append(expand, fe)
		}
		r.index += time.Since(t)
		r.reads += len(expand)

		t = time.Now()
		inc.Reset()
		for i, fe := range expand {
			scale := fe.prefix / opts.Alpha
			if recVecs[i] != nil {
				inc.StageVectorExtension(recVecs[i], scale, fe.hub, opts.Alpha)
				r.entries += len(recVecs[i])
			} else {
				inc.StageEncodedExtension(recViews[i].EntryBytes(), scale, fe.hub, opts.Alpha)
				r.entries += recViews[i].Len()
				recViews[i].Release()
			}
		}
		inc.Combine()
		acc.AddAccumulator(inc)
		frontier = frontier[:0]
		for _, en := range inc.Entries() {
			if en.Score > 0 && hubs.Contains(en.Node) {
				frontier = append(frontier, frontierHub{en.Node, en.Score})
			}
		}
		mass += inc.Sum()
		r.fold += time.Since(t)
	}
	r.bound = 1 - mass
	return r, nil
}
