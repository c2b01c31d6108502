package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stwig/internal/server"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Spans of one request share ID (the X-Stwig-Trace value the client
// sets and the coordinator forwards to its legs); Parent names the span
// that caused this one within the same request.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; off, every hook is one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(id, name, parent string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{ID: id, Name: name, Parent: parent, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// routeKind names a request by the endpoint it hits.
func routeKind(path string) string {
	switch {
	case strings.HasSuffix(path, "/update/bulk"):
		return "bulk"
	case strings.HasSuffix(path, "/update"):
		return "update"
	case strings.HasSuffix(path, "/query"):
		return "query"
	}
	return "other"
}

// wrap times every call into a server's http.Handler as a span named
// role.kind, caused by the parent role's span of the same kind.
func (t *tracer) wrap(role, parentRole string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		kind := routeKind(r.URL.Path)
		t.record(r.Header.Get(server.TraceHeader), role+"."+kind, parentRole+"."+kind, start, time.Now())
	})
}

// node is one in-process stwigd served over loopback TCP.
type node struct {
	role   string // "server", "coord" or "shard"
	cfg    server.Config
	srv    *server.Server
	ln     net.Listener
	hs     *http.Server
	served chan struct{}
	url    string
}

func listen(role string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", role, err)
	}
	return &node{role: role, ln: ln, url: "http://" + ln.Addr().String()}, nil
}

func (n *node) serve(h http.Handler) {
	n.hs = &http.Server{Handler: h}
	n.served = make(chan struct{})
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(n.ln) // returns http.ErrServerClosed after Shutdown
	}()
}

// stop shuts the listener down, waits for the serve loop to exit, then
// closes the server (update dispatchers, journals, data-dir lock).
func (n *node) stop() {
	if n.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.hs.Shutdown(ctx) // on timeout the Close below still releases the server
		cancel()
		<-n.served
		n.hs = nil
	} else if n.ln != nil {
		n.ln.Close()
	}
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

// topology is how a workload deploys stwigd.
type topology struct {
	spec   server.NamespaceSpec
	shards int  // 0: one server; otherwise a coordinator and this many shards
	fsync  bool // journal fsync (false: JournalNoSync, writes reach the page cache only)
}

// deployment is one running stwigd topology.
type deployment struct {
	ns    string
	front *node   // where clients send requests
	data  []*node // the nodes holding the namespace (the server, or the shards)
	all   []*node
}

// deploy builds and serves a topology under dir. Listeners open first,
// since the shard map must name every shard before any server exists.
func deploy(dir string, top topology, tr *tracer) (*deployment, error) {
	d := &deployment{ns: top.spec.Name}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	if top.shards == 0 {
		n, err := listen("server")
		if err != nil {
			return fail(err)
		}
		d.all = append(d.all, n)
		n.cfg = server.Config{DataDir: filepath.Join(dir, "server"), JournalNoSync: !top.fsync}
		if err := n.start(top.spec); err != nil {
			return fail(err)
		}
		n.serve(tr.wrap("server", "client", n.srv))
		d.front, d.data = n, []*node{n}
		return d, nil
	}
	urls := make([]string, top.shards)
	for i := range urls {
		n, err := listen("shard")
		if err != nil {
			return fail(err)
		}
		d.all = append(d.all, n)
		d.data = append(d.data, n)
		urls[i] = n.url
	}
	coord, err := listen("coord")
	if err != nil {
		return fail(err)
	}
	d.all = append(d.all, coord)
	shardMap := strings.Join(urls, ",")
	for i, n := range d.data {
		n.cfg = server.Config{
			DataDir:       filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			JournalNoSync: !top.fsync,
			ShardMap:      shardMap,
			ShardID:       i,
		}
		if err := n.start(top.spec); err != nil {
			return fail(err)
		}
		n.serve(tr.wrap("shard", "coord", n.srv))
	}
	coord.cfg = server.Config{ShardMap: shardMap, ShardID: -1}
	if coord.srv, err = server.NewMulti(coord.cfg); err != nil {
		return fail(fmt.Errorf("coordinator: %w", err))
	}
	coord.serve(tr.wrap("coord", "client", coord.srv))
	d.front = coord
	return d, nil
}

// start builds the node's server and its namespace.
func (n *node) start(spec server.NamespaceSpec) error {
	srv, err := server.NewMulti(n.cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", n.role, err)
	}
	n.srv = srv
	if err := srv.AddNamespaceSpec(spec); err != nil {
		return fmt.Errorf("%s: namespace %s: %w", n.role, spec.Name, err)
	}
	return nil
}

func (d *deployment) stop() {
	for _, n := range d.all {
		n.stop()
	}
}

// statsOf reads a namespace's /stats through the node's handler, in process.
func statsOf(h http.Handler, ns string) (server.StatsResponse, error) {
	var st server.StatsResponse
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ns/"+ns+"/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("stats of %q: status %d: %s", ns, rec.Code, rec.Body.String())
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}
