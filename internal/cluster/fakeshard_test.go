package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastppv/internal/api"
	"fastppv/internal/core"
)

// fault is what a fakeShard hook does to one partial request frame instead of
// (or before) answering it from the engine.
type fault struct {
	// err answers the request with this error frame.
	err *api.Error
	// delay holds the answer back.
	delay time.Duration
	// tear writes the first half of the reply frame and drops the connection.
	tear bool
}

// fakeShard is a frame-level stand-in for a fastppvd shard, so the router is
// tested over the wire it ships with: /v1/stats over plain HTTP, and
// api.StreamPath upgraded to the binary frame protocol, every partial answered
// from a (possibly sharded) core engine.
type fakeShard struct {
	*httptest.Server
	e *core.Engine

	// hook, when set, decides the fate of the n-th (1-based) partial request
	// frame this shard reads, before the engine sees it. Set it before the
	// router sends anything.
	hook func(n int, preq *api.PartialRequest) fault
	// httpDown answers every plain HTTP endpoint 503; noStream answers the
	// upgrade 404.
	httpDown, noStream atomic.Bool

	// requests counts HTTP requests (stream dials included), upgrades
	// accepted streams, partials the request frames read on them; onPartial
	// (set by routerOver) runs once per request frame.
	requests, upgrades, partials atomic.Int64
	onPartial                    func()

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newFakeShard(t testing.TB, e *core.Engine) *fakeShard {
	t.Helper()
	f := &fakeShard{e: e, conns: map[net.Conn]struct{}{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"graph": map[string]int{"nodes": e.Graph().NumNodes()},
			"epoch": e.Epoch(),
		})
	})
	mux.HandleFunc(api.StreamPath, f.serveStream)
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.requests.Add(1)
		switch {
		case f.httpDown.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
		case f.noStream.Load() && r.URL.Path == api.StreamPath:
			http.NotFound(w, r)
		default:
			mux.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(f.Close)
	return f
}

// Close kills the shard for real: httptest.Server forgets hijacked
// connections, so the streams are closed here first.
func (f *fakeShard) Close() {
	f.mu.Lock()
	for c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.Server.Close()
}

// serveStream upgrades the connection and answers frames until it breaks,
// one goroutine per request like the production shard.
func (f *fakeShard) serveStream(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != api.StreamProtocol {
		http.Error(w, "upgrade required", http.StatusBadRequest)
		return
	}
	conn, buf, err := w.(http.Hijacker).Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	f.mu.Lock()
	f.conns[conn] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()
	fmt.Fprintf(conn, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n", api.StreamProtocol)
	f.upgrades.Add(1)

	var wmu sync.Mutex
	var inflight sync.WaitGroup
	defer inflight.Wait()
	for {
		ftype, payload, _, err := api.ReadFrame(buf.Reader)
		if err != nil {
			return
		}
		if ftype != api.FramePartialRequest {
			continue // unknown frame types are tolerated, as by the shard
		}
		id, _, preq, err := api.DecodePartialRequest(payload)
		if err != nil {
			return
		}
		n := int(f.partials.Add(1))
		if f.onPartial != nil {
			f.onPartial()
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			var ft fault
			if f.hook != nil {
				ft = f.hook(n, preq)
			}
			time.Sleep(ft.delay)
			rtype, reply := f.answer(id, preq, ft.err)
			wmu.Lock()
			defer wmu.Unlock()
			if ft.tear {
				var frame bytes.Buffer
				api.WriteFrame(&frame, rtype, reply)
				conn.Write(frame.Bytes()[:frame.Len()/2])
				conn.Close()
				return
			}
			api.WriteFrame(conn, rtype, reply)
		}()
	}
}

// answer renders the reply frame for one request: the injected error, or the
// engine's partial.
func (f *fakeShard) answer(id uint64, preq *api.PartialRequest, injected *api.Error) (byte, []byte) {
	if injected != nil {
		return api.FrameError, api.EncodeError(id, injected)
	}
	presp, err := f.eval(preq)
	if err == nil {
		var reply []byte
		if reply, err = api.EncodePartialResponse(id, presp); err == nil {
			return api.FramePartialResponse, reply
		}
	}
	return api.FrameError, api.EncodeError(id, &api.Error{Code: api.CodeInternal, Message: err.Error()})
}

// eval answers one partial from the engine, as internal/server does.
func (f *fakeShard) eval(preq *api.PartialRequest) (*api.PartialResponse, error) {
	var (
		part *core.PartialIncrement
		err  error
	)
	switch {
	case preq.Query != nil:
		part, err = f.e.PartialRootSorted(*preq.Query)
	case preq.Frontier != nil:
		part, err = f.e.PartialExpand(preq.Frontier.Nodes, preq.Frontier.Scores)
	default:
		err = fmt.Errorf("neither query nor frontier")
	}
	if err != nil {
		return nil, err
	}
	p := f.e.Partition()
	shards := p.Shards
	if shards < 2 {
		shards = 1
	}
	return &api.PartialResponse{
		Shard:        p.Shard,
		Shards:       shards,
		Epoch:        f.e.Epoch(),
		Increment:    api.Vector{Nodes: part.IncrementNodes, Scores: part.IncrementScores},
		Frontier:     api.Vector{Nodes: part.FrontierNodes, Scores: part.FrontierScores},
		HubsExpanded: part.HubsExpanded,
		HubsSkipped:  part.HubsSkipped,
		Unowned:      part.Unowned,
		FromIndex:    part.FromIndex,
		Delta:        part.Delta,
	}, nil
}

// routerOver builds a router whose target i is shards[i] and, when the test
// ends, asserts the test really ran on the shipped wire: at least one partial
// request frame was served, and the serving shard's transport reported an
// established stream while it was.
func routerOver(t *testing.T, cfg RouterConfig, shards ...*fakeShard) *Router {
	t.Helper()
	for _, sh := range shards {
		cfg.Targets = append(cfg.Targets, sh.URL)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sawStream atomic.Bool
	for i, sh := range shards {
		sh.onPartial = func() {
			if r.Stats().Shards[i].Transport.StreamConnected {
				sawStream.Store(true)
			}
		}
	}
	t.Cleanup(func() {
		r.Close()
		var served int64
		for _, sh := range shards {
			served += sh.partials.Load()
		}
		if served == 0 || !sawStream.Load() {
			t.Errorf("test never reached a shard over an established stream: %d request frames served, stream observed connected: %v",
				served, sawStream.Load())
		}
	})
	return r
}
