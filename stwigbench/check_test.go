package main

import (
	"bufio"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"stwig/internal/baseline"
	"stwig/internal/core"
	"stwig/internal/graph"
	"stwig/internal/rmat"
	"stwig/internal/server"
	qgen "stwig/internal/workload"
)

// testGraph has several A-B-C paths.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	labels := []string{"A", "B", "C", "A", "B", "C", "B", "A"}
	edges := [][2]int64{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 4}, {6, 2}, {6, 3}, {7, 1}, {7, 6}, {4, 2}}
	g, err := graph.FromEdges(labels, edges, graph.Undirected())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var pathABC = core.MustNewQuery([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}})

func vf2Matches(g *graph.Graph, q *core.Query) [][]int64 {
	var out [][]int64
	for _, m := range baseline.VF2(g, q, 0) {
		a := make([]int64, len(m.Assignment))
		for i, v := range m.Assignment {
			a[i] = int64(v)
		}
		out = append(out, a)
	}
	return out
}

// answer builds the response a server streaming ms would produce.
func answer(ms [][]int64, capture bool) *response {
	res := &response{status: 200, stats: &server.StreamStats{Matches: len(ms)}}
	for _, m := range ms {
		res.match(m, time.Now(), capture)
	}
	return res
}

// tampered returns the correct answer and its corrupted, dropped and
// duplicated variants.
func tampered(ms [][]int64) map[string][][]int64 {
	clone := func() [][]int64 {
		out := make([][]int64, len(ms))
		for i, m := range ms {
			out[i] = slices.Clone(m)
		}
		return out
	}
	corrupted := clone()
	corrupted[1][2] = corrupted[0][2] + 100 // not a vertex, or a wrong one
	swapped := clone()
	swapped[0][1], swapped[0][2] = swapped[0][2], swapped[0][1] // labels no longer line up
	dropped := clone()[1:]
	replaced := clone()
	replaced[1] = slices.Clone(replaced[0]) // same count, one match twice
	extra := append(clone(), slices.Clone(ms[0]))
	return map[string][][]int64{
		"corrupted": corrupted, "swapped": swapped, "dropped": dropped,
		"duplicated in place": replaced, "duplicated extra": extra,
	}
}

func TestUncappedCheckRejectsTamperedAnswers(t *testing.T) {
	g := testGraph(t)
	pq := newPoolQuery(pathABC, 0)
	pq.want = oracle(g, pq.q, 0)
	ms := vf2Matches(g, pathABC)
	if len(ms) < 3 {
		t.Fatalf("test graph has %d matches, want at least 3", len(ms))
	}
	// Any order is the same answer.
	slices.Reverse(ms)
	if err := checkAnswer(g, pq, answer(ms, false)); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, bad := range tampered(ms) {
		if err := checkAnswer(g, pq, answer(bad, false)); err == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
}

func TestCappedCheckRejectsTamperedAnswers(t *testing.T) {
	g := testGraph(t)
	const capN = 3
	pq := newPoolQuery(pathABC, capN)
	pq.want = oracle(g, pq.q, capN)
	all := vf2Matches(g, pathABC)
	if len(all) <= capN {
		t.Fatalf("test graph has %d matches, want more than the cap %d", len(all), capN)
	}
	// Any cap-sized subset of the answer is correct: take the last ones.
	ms := all[len(all)-capN:]
	check := func(ms [][]int64) error { return checkAnswer(g, pq, answer(ms, true)) }
	if err := check(ms); err != nil {
		t.Fatalf("correct capped answer rejected: %v", err)
	}
	for name, bad := range tampered(ms) {
		if err := check(bad); err == nil {
			t.Errorf("%s capped answer accepted", name)
		}
	}
}

func TestAnswerNeedsStatsRecord(t *testing.T) {
	g := testGraph(t)
	pq := newPoolQuery(pathABC, 0)
	pq.want = oracle(g, pq.q, 0)
	res := answer(vf2Matches(g, pathABC), false)
	res.stats = nil
	if err := checkAnswer(g, pq, res); err == nil {
		t.Error("answer without a stats record accepted")
	}
	res = answer(vf2Matches(g, pathABC), false)
	res.stats.Matches++
	if err := checkAnswer(g, pq, res); err == nil {
		t.Error("answer whose stats record miscounts accepted")
	}
}

// The candidate-subgraph oracle must agree with plain VF2 on the whole
// graph, for queries with many, few and no answers.
func TestOracleAgreesWithPlainVF2(t *testing.T) {
	g := rmat.MustGenerate(rmat.Params{Scale: 9, AvgDegree: 6, NumLabels: 6, Seed: 3})
	rng := rand.New(rand.NewSource(5))
	labels := qgen.GraphLabels(g)
	for i := range 40 {
		var q *core.Query
		var err error
		if i%2 == 0 {
			q, err = qgen.DFSQuery(g, 3+i%4, rng)
		} else {
			q, err = qgen.RandomQuery(4+i%3, 6, labels, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		var want fingerprint
		for _, m := range vf2Matches(g, q) {
			want.add(m)
		}
		if got := oracle(g, q, 0); got != want {
			t.Errorf("query %d (%v): reduced oracle has %d matches, plain VF2 %d", i, q, got.n, want.n)
		}
		if got := oracle(g, q, 5); got.n != min(5, want.n) {
			t.Errorf("query %d: capped oracle has %d matches, want %d", i, got.n, min(5, want.n))
		}
	}
}

func TestReadStream(t *testing.T) {
	body := `{"type":"match","assignment":[3,14,15]}
{"type":"match","assignment":[9,2,6]}
{"type":"stats","stats":{"matches":2,"plan_cache_hit":true,"plan_us":1,"explore_us":2,"join_us":3,"elapsed_us":4,"net_messages":0,"net_bytes":0}}
`
	var res response
	if err := readStream(bufio.NewReader(strings.NewReader(body)), time.Now(), true, &res); err != nil {
		t.Fatal(err)
	}
	var want fingerprint
	want.add([]int64{3, 14, 15})
	want.add([]int64{9, 2, 6})
	if res.matches != 2 || res.fp != want || res.stats == nil || !res.stats.PlanCacheHit || res.bytes != int64(len(body)) {
		t.Errorf("parsed %+v", res)
	}
	if !slices.Equal(res.flat, []int64{3, 14, 15, 9, 2, 6}) {
		t.Errorf("captured %v", res.flat)
	}

	var bad response
	err := readStream(bufio.NewReader(strings.NewReader(`{"type":"match","assignment":[1,x]}`+"\n")), time.Now(), false, &bad)
	if err == nil {
		t.Error("malformed match record accepted")
	}
	var failed response
	err = readStream(bufio.NewReader(strings.NewReader(`{"type":"error","error":"boom","code":"internal"}`+"\n")), time.Now(), false, &failed)
	if err != nil || failed.errMsg == "" {
		t.Errorf("error record: err %v, errMsg %q", err, failed.errMsg)
	}
}

func TestCheckRecoveredRejectsDivergence(t *testing.T) {
	base := testGraph(t)
	z := newZState(1)
	n0 := base.NumNodes()
	z.ack(server.UpdateRequest{Op: server.OpAddNode, Label: zLabel}, n0)
	z.ack(server.UpdateRequest{Op: server.OpAddNode, Label: zLabel}, n0+1)
	z.ack(server.UpdateRequest{Op: server.OpAddNode, Label: zLabel}, n0+2)
	z.ack(server.UpdateRequest{Op: server.OpAddEdge, U: n0, V: n0 + 1}, 0)
	z.ack(server.UpdateRequest{Op: server.OpAddEdge, U: n0 + 1, V: n0 + 2}, 0)
	z.ack(server.UpdateRequest{Op: server.OpRemoveEdge, U: n0 + 1, V: n0}, 0)

	build := func(extraEdges [][2]int64, extraNodes int) *graph.Graph {
		var labels []string
		for v := range n0 {
			labels = append(labels, base.LabelString(graph.NodeID(v)))
		}
		for range extraNodes {
			labels = append(labels, zLabel)
		}
		var edges [][2]int64
		for v := range n0 {
			for _, u := range base.Neighbors(graph.NodeID(v)) {
				if int64(u) > v {
					edges = append(edges, [2]int64{v, int64(u)})
				}
			}
		}
		g, err := graph.FromEdges(labels, append(edges, extraEdges...), graph.Undirected())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if err := checkRecovered(build([][2]int64{{n0 + 1, n0 + 2}}, 3), base, []*zstate{z}); err != nil {
		t.Fatalf("faithful recovery rejected: %v", err)
	}
	for name, g := range map[string]*graph.Graph{
		"lost edge":        build(nil, 3),
		"resurrected edge": build([][2]int64{{n0 + 1, n0 + 2}, {n0, n0 + 1}}, 3),
		"lost vertex":      build(nil, 2),
		"extra vertex":     build([][2]int64{{n0 + 1, n0 + 2}}, 4),
		"extra base edge":  build([][2]int64{{n0 + 1, n0 + 2}, {0, 2}}, 3),
	} {
		if err := checkRecovered(g, base, []*zstate{z}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestQuietKeepsCleanOrQuietestQuarter(t *testing.T) {
	got := quiet([]float64{0, 3, 0, 5, 0, 1, 0, 2})
	if want := []bool{true, false, true, false, true, false, true, false}; !slices.Equal(got, want) {
		t.Errorf("clean measurements: kept %v, want %v", got, want)
	}
	got = quiet([]float64{9, 3, 7, 5, 4, 1, 8, 2})
	if want := []bool{false, false, false, false, false, true, false, true}; !slices.Equal(got, want) {
		t.Errorf("no clean measurement: kept %v, want the quietest quarter %v", got, want)
	}
	if m := quietMedian([]float64{10, 99, 12, 98}, []float64{0, 4, 0, 6}); m != 10 {
		t.Errorf("quietMedian = %v, want 10", m)
	}
}
