package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastppv/internal/graph"
	"fastppv/internal/ppvindex"
)

// client is one of the benchmark's callers: one keep-alive connection, one
// request in flight.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer
	url  []byte
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) queryURL(q graph.NodeID) string {
	c.url = append(c.url[:0], c.base...)
	c.url = append(c.url, "/v1/ppv?node="...)
	c.url = strconv.AppendInt(c.url, int64(q), 10)
	c.url = append(c.url, "&eta="...)
	c.url = strconv.AppendInt(c.url, queryEta, 10)
	c.url = append(c.url, "&top="...)
	c.url = strconv.AppendInt(c.url, queryTop, 10)
	return string(c.url)
}

// outcome is what the caller saw of one request. The body is only valid
// until the client's next request.
type outcome struct {
	ok       bool
	degraded bool
	cache    string // X-Fastppv-Cache
	body     []byte
}

var (
	degradedMark = []byte(`"degraded":true`)
	resultsMark  = []byte(`"results":[`)
)

// do issues one request and classifies the answer: a transport error, a
// non-200, a degraded answer or a malformed body is a failure.
func (c *client) do(method, url string, reqBody []byte) outcome {
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return outcome{}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{}
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{}
	}
	b := c.body.Bytes()
	return outcome{ok: json.Valid(b), cache: resp.Header.Get("X-Fastppv-Cache"), body: b}
}

func (c *client) query(q graph.NodeID) outcome {
	o := c.do(http.MethodGet, c.queryURL(q), nil)
	if o.ok {
		o.degraded = bytes.Contains(o.body, degradedMark)
		o.ok = !o.degraded && bytes.Contains(o.body, resultsMark)
	}
	return o
}

func (c *client) postJSON(path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	o := c.do(http.MethodPost, c.base+path, body)
	if !o.ok {
		return fmt.Errorf("POST %s failed: %s", path, bytes.TrimSpace(c.body.Bytes()))
	}
	if out != nil {
		return json.Unmarshal(o.body, out)
	}
	return nil
}

func (c *client) getJSON(path string, out any) error {
	o := c.do(http.MethodGet, c.base+path, nil)
	if !o.ok {
		return fmt.Errorf("GET %s failed: %s", path, bytes.TrimSpace(c.body.Bytes()))
	}
	return json.Unmarshal(o.body, out)
}

// phase is what one load phase measured.
type phase struct {
	samples   []sample
	elapsed   time.Duration
	attempted int64
	failed    int64
	degraded  int64
	hits      int64
	coalesced int64
	bytes     int64

	updates      []time.Duration
	compaction   *ppvindex.CompactionResult
	walBytes     int64 // update-log bytes the compaction folded
	lateness     []time.Duration
	failMessages []string
}

// writes is the write side a closed-loop phase runs beside its queries, on
// client 1's connection: an update every period and, when compact is set, one
// compaction half way.
type writes struct {
	stream  *updateStream
	every   time.Duration
	compact bool
}

// closedLoop runs numClients callers, each sending its next request when the
// previous one is answered. The phase ends after dur, or — when dur is 0 —
// once requests requests were sent (the warm-up).
func closedLoop(base string, src *sourceStream, dur time.Duration, requests int, wr *writes) *phase {
	var (
		mu    sync.Mutex
		total phase
		wg    sync.WaitGroup
		sent  atomic.Int64
	)
	t0 := time.Now()
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			var p phase
			if dur > 0 {
				p.samples = make([]sample, 0, 1<<16)
			}
			writer := wr != nil && id == 1
			var nextUpdate time.Duration
			if writer {
				nextUpdate = wr.every
			}
			for {
				now := time.Since(t0)
				if dur > 0 && now >= dur {
					break
				}
				if dur == 0 && sent.Add(1) > int64(requests) {
					break
				}
				if writer && now >= nextUpdate {
					nextUpdate += wr.every
					c.update(wr.stream, &p)
					continue
				}
				if writer && wr.compact && p.compaction == nil && now >= dur/2 {
					c.compact(&p)
					continue
				}
				start := time.Since(t0)
				o := c.query(src.next())
				p.samples = append(p.samples, sample{start: start, latency: time.Since(t0) - start, ok: o.ok})
				p.attempted++
				switch {
				case o.degraded:
					p.degraded++
					p.failed++
				case !o.ok:
					p.failed++
				default:
					p.bytes += int64(len(o.body))
					if o.cache == "hit" {
						p.hits++
					} else if o.cache == "coalesced" {
						p.coalesced++
					}
				}
			}
			mu.Lock()
			total.merge(&p)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	total.elapsed = time.Since(t0)
	return &total
}

func (p *phase) merge(o *phase) {
	p.samples = append(p.samples, o.samples...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.degraded += o.degraded
	p.hits += o.hits
	p.coalesced += o.coalesced
	p.bytes += o.bytes
	p.updates = append(p.updates, o.updates...)
	p.lateness = append(p.lateness, o.lateness...)
	p.failMessages = append(p.failMessages, o.failMessages...)
	if o.compaction != nil {
		p.compaction, p.walBytes = o.compaction, o.walBytes
	}
}

// update posts the stream's next round; a failed update counts against the
// phase like a failed query.
func (c *client) update(us *updateStream, p *phase) {
	req := us.next()
	t := time.Now()
	err := c.postJSON("/v1/update", req, nil)
	p.updates = append(p.updates, time.Since(t))
	p.attempted++
	if err != nil {
		p.failed++
		p.failMessages = append(p.failMessages, err.Error())
	}
}

func (c *client) compact(p *phase) {
	var res ppvindex.CompactionResult
	p.attempted++
	if err := c.postJSON("/v1/compact", nil, &res); err != nil {
		p.failed++
		p.failMessages = append(p.failMessages, err.Error())
	}
	p.compaction, p.walBytes = &res, res.LogBytesFreed
}

// openLoop sends perSecond requests a second for dur on numClients
// connections, whatever the answers do: request i is due at i/perSecond, its
// latency runs from that due time, and how late it was really sent is kept.
func openLoop(base string, src *sourceStream, dur time.Duration, perSecond float64) *phase {
	n := int(dur.Seconds() * perSecond)
	var (
		mu    sync.Mutex
		total phase
		wg    sync.WaitGroup
		next  atomic.Int64
	)
	t0 := time.Now()
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			var p phase
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := openLoopDue(i, perSecond)
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(t0)
				o := c.query(src.next())
				s, late := openLoopSample(due, sent, time.Since(t0), o.ok)
				p.samples = append(p.samples, s)
				p.lateness = append(p.lateness, late)
				p.attempted++
				if !o.ok {
					p.failed++
				}
			}
			mu.Lock()
			total.merge(&p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(t0)
	return &total
}
