package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fastppv/internal/graph"
	"fastppv/internal/querylog"
)

// writeLog writes n records (source i, eta 2, top 5) to a query log at path.
func writeLog(t *testing.T, path string, n int) {
	t.Helper()
	l, err := querylog.Open(path, querylog.Options{FlushInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(querylog.Record{Source: graph.NodeID(i), Eta: 2, Top: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// fakeDaemon records the query string of every request it answers.
func fakeDaemon(t *testing.T) (string, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var queries []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.Path+"?"+r.URL.RawQuery)
		mu.Unlock()
		fmt.Fprint(w, `{"l1_error_bound":0.5}`)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), queries...)
	}
}

// TestReplayBareHostPort: -addr host:port, the form fastppvd -router and
// ppvload accept, replays the records in order instead of failing every query.
func TestReplayBareHostPort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	writeLog(t, path, 5)
	url, queries := fakeDaemon(t)
	var out strings.Builder
	if err := run([]string{"-log", path, "-replay", "-addr", strings.TrimPrefix(url, "http://"), "-limit", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed 3 queries against "+url) || !strings.Contains(out.String(), ", 0 failed") {
		t.Fatalf("output:\n%s", out.String())
	}
	want := []string{"/v1/ppv?node=0&eta=2&top=5", "/v1/ppv?node=1&eta=2&top=5", "/v1/ppv?node=2&eta=2&top=5"}
	if got := queries(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// TestReplayLimitStopsScan: once -limit records are read from the previous
// generation, the active file is never scanned, so an unreadable one does
// not fail a limited replay.
func TestReplayLimitStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.qlog")
	writeLog(t, path, 4)
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Repeat("not a query log ", 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	url, queries := fakeDaemon(t)
	var out strings.Builder
	if err := run([]string{"-log", path, "-replay", "-addr", url, "-limit", "4"}, &out); err != nil {
		t.Fatalf("limited replay scanned past its limit: %v", err)
	}
	if n := len(queries()); n != 4 || !strings.Contains(out.String(), "replayed 4 queries") {
		t.Fatalf("%d queries sent, output:\n%s", n, out.String())
	}
	// Without the limit the scan reaches the foreign active file.
	if err := run([]string{"-log", path, "-replay", "-addr", url}, &out); err == nil {
		t.Fatal("unlimited replay read past a foreign active file")
	}
}
