package main

import (
	"fmt"
	"math/rand"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/rmat"
	"stwig/internal/server"
	qgen "stwig/internal/workload"
)

// nsName is the namespace every workload serves.
const nsName = "bench"

// workload is one traffic mix against one stwigd topology.
//
// The graph and the query pool come from fixed generator seeds, so every
// run measures the same work; the run's --seed orders each client's round
// and draws every update, so two seeds never send the same request stream.
type workload struct {
	name   string
	graph  rmat.Params
	shards int
	fsync  bool
	bulk   int // mutations per bulk update, when the workload sends them
	// pool builds the workload's queries from the benchmark's copy of the
	// graph (oracle answers are filled in afterwards).
	pool func(g *graph.Graph) ([]*poolQuery, error)
	// scripts lays out the closed-loop clients.
	scripts func(pool []*poolQuery, seed int64, nproc int) []*script
	warm    int // operations per client run before timing starts
	// quiesce sends every update with no query of the run in flight
	// (loadRun.quiesce), so update_p50_ms times the update path rather
	// than the remaining length of another client's query.
	quiesce bool
}

func (w *workload) topology() topology {
	p := w.graph
	return topology{
		spec: server.NamespaceSpec{
			Name: nsName, Source: "rmat",
			Scale: p.Scale, Degree: p.AvgDegree, Labels: p.NumLabels, Seed: p.Seed,
			Machines: 8, // stwigd's default
		},
		shards: w.shards,
		fsync:  w.fsync,
	}
}

// The paper's §6.1 protocol: DFS and random queries with N=10 vertices
// (random ones with E=20 edges), stopping after the first 1024 matches.
const (
	paperN   = 10
	paperE   = 20
	paperCap = 1024
)

// bulkMutations is the size of write_durable's bulk updates.
const bulkMutations = 16

// smallGraph serves the workloads of small, many-match queries: 16k
// vertices and 32 labels, so 3–4 vertex patterns have hundreds to thousands
// of embeddings.
var smallGraph = rmat.Params{Scale: 14, AvgDegree: 8, NumLabels: 32, Seed: 14}

var workloads = []*workload{
	{
		name: "paper_topk",
		// 131k vertices, 64 labels: big enough that the engine, not HTTP,
		// takes most of each request.
		graph: rmat.Params{Scale: 17, AvgDegree: 8, NumLabels: 64, Seed: 17},
		pool:  paperPool,
		scripts: func(pool []*poolQuery, seed int64, _ int) []*script {
			// One client, every pool query once per round, and one update
			// after every 16th query. The pool (160) outnumbers the plan
			// cache (128), so cyclic LRU access misses on every query.
			// Updates stay too rare for a checkpoint (every 256 batches)
			// to fall inside a run, which would make recovery_s bimodal.
			rng := rand.New(rand.NewSource(seed))
			var round []op
			for i, j := range rng.Perm(len(pool)) {
				round = append(round, op{kind: opQuery, pq: pool[j]})
				if i%16 == 15 {
					round = append(round, op{kind: opUpdate})
				}
			}
			return []*script{{round: round, z: newZState(seed)}}
		},
		warm: 16,
	},
	{
		name:  "hot_full",
		graph: smallGraph,
		pool:  func(g *graph.Graph) ([]*poolQuery, error) { return smallPool(g, 48, 0) },
		scripts: func(pool []*poolQuery, seed int64, nproc int) []*script {
			// nproc clients each cycle the whole pool (48 < 128 plan-cache
			// entries) in their own orders; the first also sends an update
			// every second pass — rare enough that no checkpoint (every 256
			// batches) falls in a run even when the host runs fast.
			return cycling(pool, seed, nproc, 2, 96)
		},
		warm:    48,
		quiesce: true,
	},
	{
		name:  "write_durable",
		graph: smallGraph,
		fsync: true,
		bulk:  bulkMutations,
		pool:  func(g *graph.Graph) ([]*poolQuery, error) { return smallPool(g, 16, 0) },
		scripts: func(pool []*poolQuery, seed int64, _ int) []*script {
			// One client posts single updates back to back; the other
			// sends a 16-mutation bulk update before every fourth query.
			single := &script{z: newZState(seed)}
			for range 8 {
				single.round = append(single.round, op{kind: opUpdate})
			}
			mixed := &script{z: newZState(seed + 1), bulk: bulkMutations}
			rng := rand.New(rand.NewSource(seed * 31))
			for i, j := range rng.Perm(len(pool)) {
				if i%4 == 0 {
					mixed.round = append(mixed.round, op{kind: opBulk})
				}
				mixed.round = append(mixed.round, op{kind: opQuery, pq: pool[j]})
			}
			return []*script{single, mixed}
		},
		warm: 4,
	},
	{
		name:   "cluster_fanout",
		graph:  smallGraph,
		shards: 2,
		// Half the pool uncapped, half capped at 64 matches.
		pool: func(g *graph.Graph) ([]*poolQuery, error) { return smallPool(g, 24, 64) },
		scripts: func(pool []*poolQuery, seed int64, nproc int) []*script {
			// As hot_full, with an update after every 8th query of client 0,
			// broadcast to both shards: enough for a steady update_p50_ms,
			// and always past the 256 batches of a checkpoint, so recovery
			// always loads one.
			return cycling(pool, seed, nproc, 1, 8)
		},
		warm:    24,
		quiesce: true,
	},
}

// cycling gives each of nproc clients a round of the given number of
// passes over the whole pool, each pass in its own order; client 0 also
// sends an update after every updateEvery queries of its round.
func cycling(pool []*poolQuery, seed int64, nproc, passes, updateEvery int) []*script {
	out := make([]*script, nproc)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		s := &script{}
		var order []int
		for range passes {
			order = append(order, rng.Perm(len(pool))...)
		}
		for i, j := range order {
			s.round = append(s.round, op{kind: opQuery, pq: pool[j]})
			if c == 0 && i%updateEvery == updateEvery-1 {
				s.round = append(s.round, op{kind: opUpdate})
			}
		}
		if c == 0 {
			s.z = newZState(seed)
		}
		out[c] = s
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// paperPool draws 160 distinct queries, alternating the paper's two
// generators, each capped at 1024 matches.
func paperPool(g *graph.Graph) ([]*poolQuery, error) {
	const size = 160
	rng := rand.New(rand.NewSource(1001))
	labels := qgen.GraphLabels(g)
	seen := map[string]bool{}
	var pool []*poolQuery
	for attempt := 0; len(pool) < size; attempt++ {
		if attempt > 4*size {
			return nil, fmt.Errorf("paper pool: only %d distinct queries in %d attempts", len(pool), attempt)
		}
		var q *core.Query
		var err error
		if len(pool)%2 == 0 {
			q, err = qgen.DFSQuery(g, paperN, rng)
		} else {
			q, err = qgen.RandomQuery(paperN, paperE, labels, rng)
		}
		if err != nil || seen[q.Signature()] {
			continue
		}
		seen[q.Signature()] = true
		pool = append(pool, newPoolQuery(q, paperCap))
	}
	return pool, nil
}

// Small-query pools keep patterns whose full answer holds between
// minAnswer and maxAnswer embeddings.
const (
	minAnswer = 200
	maxAnswer = 4000
)

// smallPool draws size distinct 3- and 4-vertex DFS queries with
// hundreds to thousands of matches; with capN > 0 every other one is
// capped at capN.
func smallPool(g *graph.Graph, size, capN int) ([]*poolQuery, error) {
	rng := rand.New(rand.NewSource(2002))
	seen := map[string]bool{}
	var pool []*poolQuery
	for attempt := 0; len(pool) < size; attempt++ {
		if attempt > 200*size {
			return nil, fmt.Errorf("small pool: only %d queries in %d attempts", len(pool), attempt)
		}
		q, err := qgen.DFSQuery(g, 3+attempt%2, rng)
		if err != nil || seen[q.Signature()] {
			continue
		}
		seen[q.Signature()] = true
		if n := oracle(g, q, maxAnswer+1).n; n < minAnswer || n > maxAnswer {
			continue
		}
		c := 0
		if capN > 0 && len(pool)%2 == 1 {
			c = capN
		}
		pool = append(pool, newPoolQuery(q, c))
	}
	return pool, nil
}
