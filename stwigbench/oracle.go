package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"stwig/internal/baseline"
	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/server"
)

// poolQuery is one query of a workload's pool with its oracle answer.
type poolQuery struct {
	q    *core.Query
	cap  int    // max_matches; 0 = uncapped
	body []byte // the /query request body
	// want is computed by baseline.VF2 on the benchmark's own copy of the
	// graph: the full answer's fingerprint for uncapped queries, and
	// min(cap, answer size) in want.n for capped ones.
	want fingerprint
}

func newPoolQuery(q *core.Query, capN int) *poolQuery {
	body, err := json.Marshal(server.QueryRequest{Query: q.String(), MaxMatches: capN})
	if err != nil {
		panic(err) // a string and an int always marshal
	}
	return &poolQuery{q: q, cap: capN, body: body}
}

// solve fills want for every pool query, spreading VF2 over the cores.
func solve(g *graph.Graph, pool []*poolQuery) {
	var wg sync.WaitGroup
	next := make(chan *poolQuery)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pq := range next {
				pq.want = oracle(g, pq.q, pq.cap)
			}
		}()
	}
	for _, pq := range pool {
		next <- pq
	}
	close(next)
	wg.Wait()
}

// oracle runs baseline.VF2 for q on the part of g that can hold an
// embedding (see candidateSubgraph) and digests the first capN matches
// (all of them when capN is 0), mapped back to g's vertex ids.
func oracle(g *graph.Graph, q *core.Query, capN int) fingerprint {
	var fp fingerprint
	sub, orig := candidateSubgraph(g, q)
	if sub == nil {
		return fp
	}
	ids := make([]int64, q.NumVertices())
	for _, m := range baseline.VF2(sub, q, capN) {
		for i, v := range m.Assignment {
			ids[i] = orig[v]
		}
		fp.add(ids)
	}
	return fp
}

// candidateSubgraph narrows g to the vertices that can take part in an
// embedding of q, by arc consistency: a vertex stays a candidate for query
// vertex v while it carries v's label, has at least v's degree, and has a
// neighbour among the candidates of every query neighbour of v. Every
// embedding maps each v to one of its candidates, so the subgraph induced
// by all candidates holds exactly g's embeddings of q — and VF2 on it
// skips the dead ends that make it crawl on g when answers are rare (a
// 10-vertex random query with no match takes VF2 tens of seconds on the
// paper_topk graph). It returns the subgraph and each of its vertices' id
// in g, or nil when some query vertex has no candidate (no embedding).
func candidateSubgraph(g *graph.Graph, q *core.Query) (*graph.Graph, []int64) {
	n, nq := g.NumNodes(), q.NumVertices()
	cand := make([][]bool, nq)
	for v := range cand {
		label, ok := g.Labels().Lookup(q.Label(v))
		if !ok {
			return nil, nil
		}
		cand[v] = make([]bool, n)
		for x := range n {
			id := graph.NodeID(x)
			cand[v][x] = g.Label(id) == label && g.Degree(id) >= q.Degree(v)
		}
	}
	for changed := true; changed; {
		changed = false
		for v := range nq {
			for x := range n {
				if cand[v][x] && !supported(g, q, cand, v, graph.NodeID(x)) {
					cand[v][x] = false
					changed = true
				}
			}
		}
	}
	keep := make([]bool, n)
	for v := range nq {
		found := false
		for x := range n {
			if cand[v][x] {
				keep[x], found = true, true
			}
		}
		if !found {
			return nil, nil
		}
	}
	b := graph.NewBuilder(graph.Undirected())
	local := make([]graph.NodeID, n)
	var orig []int64
	for x := range n {
		if keep[x] {
			local[x] = b.AddNode(g.LabelString(graph.NodeID(x)))
			orig = append(orig, x)
		}
	}
	for _, x := range orig {
		for _, y := range g.Neighbors(graph.NodeID(x)) {
			if int64(y) > x && keep[y] {
				b.MustAddEdge(local[x], local[y])
			}
		}
	}
	return b.Build(), orig
}

// supported reports whether data vertex x has, for every query neighbour u
// of v, a neighbour that is still a candidate for u.
func supported(g *graph.Graph, q *core.Query, cand [][]bool, v int, x graph.NodeID) bool {
	for _, u := range q.Neighbors(v) {
		ok := false
		for _, y := range g.Neighbors(x) {
			if cand[u][y] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// checkAnswer compares one /query response with the oracle.
//
//   - Uncapped: the streamed multiset equals the oracle's set — same count,
//     same fingerprint, hence no duplicates and nothing missing.
//   - Capped: min(cap, oracle count) matches, each a valid embedding in g,
//     no two alike.
func checkAnswer(g *graph.Graph, pq *poolQuery, res *response) error {
	if res.stats == nil {
		return fmt.Errorf("stream ended without a stats record")
	}
	if res.stats.Matches != res.matches {
		return fmt.Errorf("stats record claims %d matches, stream carried %d", res.stats.Matches, res.matches)
	}
	if pq.cap == 0 {
		if res.fp != pq.want {
			return fmt.Errorf("answer differs from the oracle: %d matches (digest %x/%x), oracle %d (digest %x/%x)",
				res.fp.n, res.fp.s1, res.fp.s2, pq.want.n, pq.want.s1, pq.want.s2)
		}
		return nil
	}
	if res.matches != pq.want.n {
		return fmt.Errorf("capped answer has %d matches, want min(cap %d, oracle) = %d", res.matches, pq.cap, pq.want.n)
	}
	return checkEmbeddings(g, pq.q, res.flat)
}

// checkEmbeddings verifies that flat holds distinct, valid embeddings of q.
func checkEmbeddings(g *graph.Graph, q *core.Query, flat []int64) error {
	nq := q.NumVertices()
	if len(flat)%nq != 0 {
		return fmt.Errorf("assignment width mismatch: %d ids for %d-vertex query", len(flat), nq)
	}
	labels := make([]graph.LabelID, nq)
	for i := range labels {
		id, ok := g.Labels().Lookup(q.Label(i))
		if !ok {
			return fmt.Errorf("query label %q absent from the graph", q.Label(i))
		}
		labels[i] = id
	}
	edges := q.Edges()
	seen := make(map[string]bool, len(flat)/nq)
	var key []byte
	for off := 0; off < len(flat); off += nq {
		a := flat[off : off+nq]
		for i, v := range a {
			if v < 0 || v >= g.NumNodes() || g.Label(graph.NodeID(v)) != labels[i] {
				return fmt.Errorf("match %v: vertex %d does not carry label %s", a, v, q.Label(i))
			}
			for j := 0; j < i; j++ {
				if a[j] == v {
					return fmt.Errorf("match %v binds vertex %d twice", a, v)
				}
			}
		}
		for _, e := range edges {
			if !g.HasEdge(graph.NodeID(a[e[0]]), graph.NodeID(a[e[1]])) {
				return fmt.Errorf("match %v: query edge %d-%d has no data edge", a, e[0], e[1])
			}
		}
		key = key[:0]
		for _, v := range a {
			key = strconv.AppendInt(append(key, ','), v, 10)
		}
		if seen[string(key)] {
			return fmt.Errorf("match %v streamed twice", a)
		}
		seen[string(key)] = true
	}
	return nil
}

// zLabel labels every vertex the workloads' updates create. No pool query
// uses it and updates only ever link Z vertices to each other, so every
// query's answer is the same before, during and after the updates.
const zLabel = "Z"

// zstate is one updating client's view of the vertices and edges it owns.
// It only proposes mutations that cannot conflict (no duplicate edge, no
// removal of an absent one), and records a mutation once it is
// acknowledged — it is the model the recovered graph is checked against.
type zstate struct {
	rng   *rand.Rand
	nodes []int64
	live  map[[2]int64]bool
	edges [][2]int64 // the keys of live, for uniform removal picks
}

func newZState(seed int64) *zstate {
	return &zstate{rng: rand.New(rand.NewSource(seed)), live: map[[2]int64]bool{}}
}

func edgeKey(u, v int64) [2]int64 {
	if u > v {
		u, v = v, u
	}
	return [2]int64{u, v}
}

// propose draws the next mutation; touched holds edges already used by
// the batch being assembled (nil for a single update).
func (z *zstate) propose(touched map[[2]int64]bool) server.UpdateRequest {
	addNode := server.UpdateRequest{Op: server.OpAddNode, Label: zLabel}
	r := z.rng.Intn(10)
	switch {
	case len(z.nodes) < 2 || r < 4:
		return addNode
	case r < 8:
		for try := 0; try < 8; try++ {
			u := z.nodes[z.rng.Intn(len(z.nodes))]
			v := z.nodes[z.rng.Intn(len(z.nodes))]
			k := edgeKey(u, v)
			if u != v && !z.live[k] && !touched[k] {
				if touched != nil {
					touched[k] = true
				}
				return server.UpdateRequest{Op: server.OpAddEdge, U: u, V: v}
			}
		}
		return addNode
	default:
		for try := 0; try < 8 && len(z.edges) > 0; try++ {
			k := z.edges[z.rng.Intn(len(z.edges))]
			if !touched[k] {
				if touched != nil {
					touched[k] = true
				}
				return server.UpdateRequest{Op: server.OpRemoveEdge, U: k[0], V: k[1]}
			}
		}
		return addNode
	}
}

// batch proposes k mutations that are pairwise independent.
func (z *zstate) batch(k int) []server.UpdateRequest {
	touched := map[[2]int64]bool{}
	out := make([]server.UpdateRequest, k)
	for i := range out {
		out[i] = z.propose(touched)
	}
	return out
}

// ack records an acknowledged mutation.
func (z *zstate) ack(req server.UpdateRequest, nodeID int64) {
	switch req.Op {
	case server.OpAddNode:
		z.nodes = append(z.nodes, nodeID)
	case server.OpAddEdge:
		k := edgeKey(req.U, req.V)
		z.live[k] = true
		z.edges = append(z.edges, k)
	case server.OpRemoveEdge:
		k := edgeKey(req.U, req.V)
		delete(z.live, k)
		i := slices.Index(z.edges, k)
		z.edges[i] = z.edges[len(z.edges)-1]
		z.edges = z.edges[:len(z.edges)-1]
	}
}

// checkRecovered compares a recovered graph with base plus the
// acknowledged Z mutations of every client.
func checkRecovered(got, base *graph.Graph, zs []*zstate) error {
	adj := map[int64][]int64{}
	nz := 0
	for _, z := range zs {
		nz += len(z.nodes)
		for _, v := range z.nodes {
			adj[v] = nil
		}
		for k := range z.live {
			adj[k[0]] = append(adj[k[0]], k[1])
			adj[k[1]] = append(adj[k[1]], k[0])
		}
	}
	n0 := base.NumNodes()
	if got.NumNodes() != n0+int64(nz) {
		return fmt.Errorf("recovered graph has %d vertices, want %d base + %d acknowledged add_node", got.NumNodes(), n0, nz)
	}
	for v := int64(0); v < got.NumNodes(); v++ {
		id := graph.NodeID(v)
		var wantLabel string
		var want []int64
		if v < n0 {
			wantLabel = base.LabelString(id)
			for _, u := range base.Neighbors(id) {
				want = append(want, int64(u))
			}
		} else {
			nb, ok := adj[v]
			if !ok {
				return fmt.Errorf("recovered vertex %d was never acknowledged", v)
			}
			wantLabel, want = zLabel, slices.Clone(nb)
		}
		if l := got.LabelString(id); l != wantLabel {
			return fmt.Errorf("recovered vertex %d has label %q, want %q", v, l, wantLabel)
		}
		var have []int64
		for _, u := range got.Neighbors(id) {
			have = append(have, int64(u))
		}
		slices.Sort(want)
		slices.Sort(have)
		if !slices.Equal(have, want) {
			return fmt.Errorf("recovered vertex %d has neighbours %v, want %v", v, have, want)
		}
	}
	return nil
}

// snapshotOf reads a namespace's graph through the server's own
// GET /v1/ns/{ns}/snapshot handler (checkpoint framing: a 24-byte header,
// then the binary graph).
func snapshotOf(h http.Handler, ns string) (*graph.Graph, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ns/"+ns+"/snapshot", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("snapshot of %q: status %d: %s", ns, rec.Code, rec.Body.String())
	}
	body := rec.Body
	if _, err := io.CopyN(io.Discard, body, 24); err != nil {
		return nil, fmt.Errorf("snapshot of %q: header: %w", ns, err)
	}
	return graph.ReadBinary(body)
}
