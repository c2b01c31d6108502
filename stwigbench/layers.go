package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/journal"
	"stwig/internal/memcloud"
	"stwig/internal/rmat"
	"stwig/internal/server"
)

// probeQueries bounds how many pool queries the direct-call probes use.
const probeQueries = 32

// layers derives the per-layer metrics of a traced run: from the spans
// and samples of the traced window, and from the benchmark's own timed
// calls into each module's public functions on the same inputs.
func (b *bench) layers(traced, untraced phase, hc *http.Client) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	probe := b.pool[:min(probeQueries, len(b.pool))]

	qp50 := func(p phase) float64 {
		var xs []float64
		for _, s := range p.samples {
			if s.kind == opQuery {
				xs = append(xs, ms(s.lat))
			}
		}
		return percentile(xs, 50)
	}
	set("trace.overhead_pct", 100*(qp50(traced)-qp50(untraced))/qp50(untraced), "%")

	// server: the front node's handler, as the benchmark's wrapper timed it.
	front := b.dep.front.role
	byID := groupSpans(b.tr.spans)
	var handler, transport, updHandler, waits []float64
	handlerOf := map[*poolQuery][]float64{}
	var bytesSum, matchSum int64
	hits, queries := 0, 0
	for _, s := range traced.samples {
		sp := byID[s.id]
		switch s.kind {
		case opQuery:
			queries++
			if s.planHit {
				hits++
			}
			bytesSum += s.bytes
			matchSum += int64(s.matches)
			if h := sp[front+".query"]; len(h) == 1 {
				handler = append(handler, ms(h[0].dur()))
				transport = append(transport, ms(s.lat)-ms(h[0].dur()))
				handlerOf[s.pq] = append(handlerOf[s.pq], ms(h[0].dur()))
			}
		case opUpdate:
			waits = append(waits, ms(s.wait))
			if h := sp[front+".update"]; len(h) == 1 {
				updHandler = append(updHandler, ms(h[0].dur()))
			}
		}
	}
	set("server.query_handler_ms", percentile(handler, 50), "ms")
	set("server.transport_ms", percentile(transport, 50), "ms")
	set("server.bytes_per_match", float64(bytesSum)/float64(max(matchSum, 1)), "B")
	set("server.update_handler_ms", percentile(updHandler, 50), "ms")
	set("server.update_wait_ms", percentile(waits, 50), "ms")
	set("core.plancache_hit_ratio", float64(hits)/float64(max(queries, 1)), "ratio")

	st, err := statsOf(b.dep.data[0].srv, nsName)
	if err != nil {
		return nil, err
	}
	uq := st.UpdateQueue
	set("server.mutations_per_batch", float64(uq.BatchSizeSum)/float64(max(uq.Batches, 1)), "count")
	if j := st.Journal; j != nil {
		set("journal.fsyncs_per_mutation", float64(j.Fsyncs)/float64(max(uq.Applied, 1)), "ratio")
		set("journal.bytes_per_mutation", float64(j.Bytes)/float64(max(uq.Applied, 1)), "B")
		set("journal.checkpoints", float64(j.Checkpoints), "count")
	}

	// rmat, memcloud and core: a mirror of the served namespace, built and
	// queried by direct calls.
	start := time.Now()
	mg, err := rmat.Generate(b.w.graph)
	if err != nil {
		return nil, err
	}
	set("rmat.generate_s", time.Since(start).Seconds(), "s")
	cluster, err := memcloud.NewCluster(memcloud.Config{Machines: 8})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := cluster.LoadGraph(mg); err != nil {
		return nil, err
	}
	set("memcloud.load_s", time.Since(start).Seconds(), "s")
	set("memcloud.store_mb", float64(cluster.TotalMemoryBytes())/(1<<20), "MB")
	engineMS, err := b.coreLayer(cluster, probe, hits*2 > queries, set)
	if err != nil {
		return nil, err
	}
	var stream []float64
	for pq, e := range engineMS {
		if h := handlerOf[pq]; len(h) > 0 {
			stream = append(stream, percentile(h, 50)-e)
		}
	}
	set("server.stream_ms", percentile(stream, 50), "ms")
	b.applyLayer(cluster, set)
	if err := b.journalLayer(set); err != nil {
		return nil, err
	}
	share, err := clientShare(probe, traced, hc, b.dep.front.url)
	if err != nil {
		return nil, err
	}
	set("load.client_cpu_share_pct", share, "%")

	// coord: the cluster's own traced window, or a probe cluster over the
	// same namespace spec for the single-server workloads.
	if err := b.coordLayer(traced, probe, hc, set); err != nil {
		return nil, err
	}
	return m, nil
}

// coreLayer times core.Planner.Plan, core.Executor.Run and
// core.Engine.MatchStreamBlocks on the probe queries, and returns each
// query's direct engine time in milliseconds. With warmCache the engine
// first runs every query once, matching a server whose plan cache hits.
func (b *bench) coreLayer(c *memcloud.Cluster, probe []*poolQuery, warmCache bool, set func(string, float64, string)) (map[*poolQuery]float64, error) {
	opts := core.Options{}
	ctx := core.WithTraceID(context.Background(), "probe") // the server traces every request too
	planner, executor := core.NewPlanner(c, opts), core.NewExecutor(c, opts)
	var planUS, execMS []float64
	for _, pq := range probe {
		start := time.Now()
		plan, err := planner.Plan(pq.q)
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		planUS = append(planUS, float64(time.Since(start).Microseconds()))
		start = time.Now()
		if _, err := executor.Run(ctx, plan, capEmit(pq.cap, nil)); err != nil {
			return nil, fmt.Errorf("executor: %w", err)
		}
		execMS = append(execMS, ms(time.Since(start)))
	}
	set("core.plan_us", percentile(planUS, 50), "us")
	set("core.exec_ms", percentile(execMS, 50), "ms")

	eng := core.NewEngine(c, opts)
	if warmCache {
		for _, pq := range probe {
			if _, err := eng.MatchStreamBlocks(ctx, pq.q, capEmit(pq.cap, nil)); err != nil {
				return nil, err
			}
		}
	}
	out := map[*poolQuery]float64{}
	var engMS, firstMS []float64
	var tasks, rows, matches, netBytes uint64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	for _, pq := range probe {
		var first time.Duration
		emitted := 0
		start := time.Now()
		stats, err := eng.MatchStreamBlocks(ctx, pq.q, capEmit(pq.cap, func(n int) {
			if emitted == 0 {
				first = time.Since(start)
			}
			emitted += n
		}))
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		d := ms(time.Since(start))
		out[pq] = d
		engMS = append(engMS, d)
		if emitted > 0 {
			firstMS = append(firstMS, ms(first))
		}
		tasks += stats.ParallelTasks
		netBytes += stats.Net.Bytes
		for _, n := range stats.STwigMatchCounts {
			rows += uint64(n)
		}
		matches += uint64(emitted)
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	n := float64(len(probe))
	set("core.engine_ms", percentile(engMS, 50), "ms")
	set("core.first_block_ms", percentile(firstMS, 50), "ms")
	set("core.allocs_per_query", float64(after.Mallocs-before.Mallocs)/n, "count")
	set("core.alloc_kb_per_query", float64(after.TotalAlloc-before.TotalAlloc)/1024/n, "KB")
	set("core.cpu_ms_per_query", ms(cpu)/n, "ms")
	set("core.parallel_tasks_per_query", float64(tasks)/n, "count")
	set("core.explore_rows_per_match", float64(rows)/float64(max(matches, 1)), "ratio")
	set("memcloud.modeled_net_kb_per_query", float64(netBytes)/1024/n, "KB")
	return out, nil
}

// groupSpans indexes spans by request id, then by span name.
func groupSpans(spans []span) map[string]map[string][]span {
	byID := map[string]map[string][]span{}
	for _, s := range spans {
		if byID[s.ID] == nil {
			byID[s.ID] = map[string][]span{}
		}
		byID[s.ID][s.Name] = append(byID[s.ID][s.Name], s)
	}
	return byID
}

// capEmit consumes match blocks up to capN (0 = all), reporting each
// consumed count to onBlock.
func capEmit(capN int, onBlock func(int)) func([]core.Match) (int, bool) {
	total := 0
	return func(ms []core.Match) (int, bool) {
		n := len(ms)
		if capN > 0 && total+n >= capN {
			n = capN - total
		}
		total += n
		if onBlock != nil {
			onBlock(n)
		}
		return n, capN == 0 || total < capN
	}
}

// mutationBatches draws count mutations from a fresh update model in
// batches shaped like the workload's (its bulk size, else 1), applying
// each batch through apply and acknowledging the results.
func (b *bench) mutationBatches(count int, apply func([]memcloud.Mutation) []memcloud.MutationResult) {
	size := max(1, b.w.bulk)
	z := newZState(b.seed + 7)
	for done := 0; done < count; done += size {
		reqs := z.batch(size)
		muts := make([]memcloud.Mutation, len(reqs))
		for i, r := range reqs {
			switch r.Op {
			case server.OpAddNode:
				muts[i] = memcloud.Mutation{Op: memcloud.MutAddNode, Label: r.Label}
			case server.OpAddEdge:
				muts[i] = memcloud.Mutation{Op: memcloud.MutAddEdge, U: graph.NodeID(r.U), V: graph.NodeID(r.V)}
			default:
				muts[i] = memcloud.Mutation{Op: memcloud.MutRemoveEdge, U: graph.NodeID(r.U), V: graph.NodeID(r.V)}
			}
		}
		res := apply(muts)
		for i, r := range reqs {
			z.ack(r, int64(res[i].NodeID))
		}
	}
}

// applyLayer times memcloud.Cluster.ApplyBatch on the mirror.
func (b *bench) applyLayer(c *memcloud.Cluster, set func(string, float64, string)) {
	const count = 512
	var busy time.Duration
	applied := 0
	b.mutationBatches(count, func(muts []memcloud.Mutation) []memcloud.MutationResult {
		start := time.Now()
		res := c.ApplyBatch(muts)
		busy += time.Since(start)
		applied += len(muts)
		return res
	})
	set("memcloud.apply_us_per_mutation", float64(busy.Microseconds())/float64(applied), "us")
}

// journalLayer times journal.Writer.Append and Sync on records shaped like
// the workload's update batches, in a scratch file under the run dir.
func (b *bench) journalLayer(set func(string, float64, string)) error {
	path := filepath.Join(b.out, "run", fmt.Sprintf("journal-probe-%d.wal", os.Getpid()))
	w, err := journal.OpenWriter(path, 0, 1)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	w.SetAlign(journal.DefaultAlign)
	var appendUS, syncMS []float64
	next := graph.NodeID(1 << 40) // ids only need to be distinct here
	var werr error
	b.mutationBatches(64, func(muts []memcloud.Mutation) []memcloud.MutationResult {
		res := make([]memcloud.MutationResult, len(muts))
		for i, mu := range muts {
			if mu.Op == memcloud.MutAddNode {
				res[i].NodeID = next
				next++
			}
		}
		body, err := journal.EncodeBatch(muts)
		if err != nil {
			werr = err
			return res
		}
		start := time.Now()
		if _, err := w.Append(body); err != nil {
			werr = err
		}
		appendUS = append(appendUS, float64(time.Since(start).Nanoseconds())/1e3)
		start = time.Now()
		if err := w.Sync(); err != nil {
			werr = err
		}
		syncMS = append(syncMS, ms(time.Since(start)))
		return res
	})
	if err := w.Close(); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("journal probe: %w", werr)
	}
	set("journal.append_us", percentile(appendUS, 50), "us")
	set("journal.sync_ms", percentile(syncMS, 50), "ms")
	return nil
}

// clientShare bounds the load generator's share of the traced window's
// CPU: the benchmark's client replays the probe queries' recorded
// responses from an in-memory HTTP server and that CPU per query, scaled
// to the window's query count, is set against the window's process CPU.
// The replay server's own cost is included, so this is an upper bound.
func clientShare(probe []*poolQuery, traced phase, hc *http.Client, frontURL string) (float64, error) {
	bodies := make([][]byte, len(probe))
	for i, pq := range probe {
		resp, err := hc.Post(frontURL+"/v1/ns/"+nsName+"/query", "application/json", bytes.NewReader(pq.body))
		if err != nil {
			return 0, err
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	replay := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var i int
		fmt.Sscanf(r.Header.Get(server.TraceHeader), "r%d", &i)
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write(bodies[i])
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = replay.Serve(ln)
	}()
	defer func() {
		_ = replay.Close()
		<-done
	}()
	c := newClient(hc)
	const rounds = 4
	cpu0 := cpuTime()
	for range rounds {
		for i, pq := range probe {
			if _, err := c.query("http://"+ln.Addr().String()+"/q", pq.body, fmt.Sprintf("r%d", i), pq.cap > 0); err != nil {
				return 0, err
			}
		}
	}
	perQuery := ms(cpuTime()-cpu0) / float64(rounds*len(probe))
	queries := 0
	for _, s := range traced.samples {
		if s.kind == opQuery {
			queries++
		}
	}
	return 100 * perQuery * float64(queries) / ms(traced.cpu), nil
}

// coordLayer derives the coordinator metrics. A clustered workload uses
// its own traced window; the others deploy a two-shard probe cluster of
// the same namespace spec and send it the probe queries and a few updates.
func (b *bench) coordLayer(traced phase, probe []*poolQuery, hc *http.Client, set func(string, float64, string)) error {
	samples := traced.samples
	dep := b.dep
	if dep.front.role != "coord" {
		top := b.w.topology()
		top.shards, top.fsync = 2, false
		var err error
		dep, err = deploy(filepath.Join(b.out, "run", fmt.Sprintf("probe-%d", os.Getpid())), top, b.tr)
		if err != nil {
			return fmt.Errorf("probe cluster: %w", err)
		}
		defer dep.stop()
		s := &script{z: newZState(b.seed + 11)}
		for i, pq := range probe {
			s.round = append(s.round, op{kind: opQuery, pq: pq})
			if i%4 == 3 {
				s.round = append(s.round, op{kind: opUpdate})
			}
		}
		pl := newLoad("p", dep.front.url, nsName, b.g, b.tr, []*script{s}, false, hc)
		b.tr.on.Store(true)
		pl.run(0) // exactly one round
		b.tr.on.Store(false)
		b.wrong = append(b.wrong, pl.wrong...)
		if pl.failed > 0 {
			return fmt.Errorf("probe cluster: %d operations failed", pl.failed)
		}
		samples = pl.samples
	}

	// Unsliced: each probe query sent straight to shard 0 with no selector,
	// so one shard does the whole query.
	unsliced := map[*poolQuery]float64{}
	c := newClient(hc)
	b.tr.on.Store(true)
	for i, pq := range probe {
		id := fmt.Sprintf("u%d", i)
		res, err := c.query(dep.data[0].url+"/v1/ns/"+nsName+"/query", pq.body, id, pq.cap > 0)
		if err != nil || res.status != http.StatusOK || res.errMsg != "" {
			b.tr.on.Store(false)
			return fmt.Errorf("unsliced probe query: %v %s", err, res.errMsg)
		}
		if pq.cap == 0 {
			if err := checkAnswer(b.g, pq, &res); err != nil {
				b.wrong = append(b.wrong, "unsliced probe: "+err.Error())
			}
		}
	}
	b.tr.on.Store(false)
	byID := groupSpans(b.tr.spans)
	for i, pq := range probe {
		if sp := byID[fmt.Sprintf("u%d", i)]["shard.query"]; len(sp) == 1 {
			unsliced[pq] = ms(sp[0].dur())
		}
	}

	var coordQ, legs, merge, broadcast []float64
	legSum := map[*poolQuery][]float64{}
	var legBytes, matches int64
	for _, s := range samples {
		sp := byID[s.id]
		switch s.kind {
		case opQuery:
			legBytes += s.legBytes
			matches += int64(s.matches)
			cq := sp["coord.query"]
			if len(cq) != 1 {
				continue
			}
			coordQ = append(coordQ, ms(cq[0].dur()))
			var slowest, sum time.Duration
			for _, leg := range sp["shard.query"] {
				legs = append(legs, ms(leg.dur()))
				slowest = max(slowest, leg.dur())
				sum += leg.dur()
			}
			merge = append(merge, ms(cq[0].dur()-slowest))
			legSum[s.pq] = append(legSum[s.pq], ms(sum))
		case opUpdate:
			if cu := sp["coord.update"]; len(cu) == 1 {
				broadcast = append(broadcast, ms(cu[0].dur()))
			}
		}
	}
	var ratio []float64
	for pq, u := range unsliced {
		if ls := legSum[pq]; len(ls) > 0 && u > 0 {
			ratio = append(ratio, percentile(ls, 50)/u)
		}
	}
	set("coord.query_handler_ms", percentile(coordQ, 50), "ms")
	set("coord.leg_handler_ms", percentile(legs, 50), "ms")
	set("coord.merge_ms", percentile(merge, 50), "ms")
	set("coord.leg_work_ratio", percentile(ratio, 50), "ratio")
	set("coord.leg_bytes_per_match", float64(legBytes)/float64(max(matches, 1)), "B")
	set("coord.broadcast_ms", percentile(broadcast, 50), "ms")
	return nil
}
