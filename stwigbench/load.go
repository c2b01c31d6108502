package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"stwig/internal/graph"
	"stwig/internal/server"
)

type opKind int

const (
	opQuery  opKind = iota
	opUpdate        // one mutation, POST .../update
	opBulk          // script.bulk mutations, POST .../update/bulk
)

type op struct {
	kind opKind
	pq   *poolQuery // opQuery only
}

// script is one closed-loop client: the round of operations it repeats
// until the run's time is up. A run always ends on a round boundary, so
// every run attempts whole rounds of the same operations.
type script struct {
	round []op
	z     *zstate // the client's update model; nil when it sends none
	bulk  int     // mutations per opBulk
}

// sample is one completed operation.
type sample struct {
	kind      opKind
	pq        *poolQuery
	id        string
	end       time.Time
	lat       time.Duration
	first     time.Duration // time to the first match record (queries with matches)
	bytes     int64
	matches   int
	mutations int           // acknowledged mutations (updates)
	wait      time.Duration // server-reported queue wait (updates)
	planHit   bool
	legBytes  int64 // bytes the coordinator read off its legs
}

// loadRun is the shared state of one timed (or warm-up) pass.
type loadRun struct {
	prefix  string // request-id prefix, unique per loadRun of a process
	base    string // front URL + /v1/ns/{ns}
	g       *graph.Graph
	tr      *tracer
	clients []*client
	scripts []*script
	// quiesce, when set, sends every update with none of this run's
	// queries in flight: updates take gate for writing, queries for
	// reading. Without it an update's latency is mostly the rest of
	// whichever query the other client has in flight when the server's
	// writer-priority gate parks it.
	quiesce bool
	gate    sync.RWMutex

	mu      sync.Mutex
	samples []sample
	done    int // operations completed, warm-up included
	failed  int
	wrong   []string
	seq     int
}

func newLoad(prefix, front, ns string, g *graph.Graph, tr *tracer, scripts []*script, quiesce bool, hc *http.Client) *loadRun {
	l := &loadRun{prefix: prefix, base: front + "/v1/ns/" + ns, g: g, tr: tr, scripts: scripts, quiesce: quiesce}
	for range scripts {
		l.clients = append(l.clients, newClient(hc))
	}
	return l
}

// warm runs the first n operations of every client's round, concurrently,
// without recording samples. Answers are still checked and updates still
// enter the model.
func (l *loadRun) warm(n int) {
	var wg sync.WaitGroup
	for i := range l.scripts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := l.scripts[i]
			for _, o := range s.round[:min(n, len(s.round))] {
				l.do(i, o, false)
			}
		}()
	}
	wg.Wait()
}

// run drives every client for at least d, each finishing its last round.
func (l *loadRun) run(d time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range l.scripts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, o := range l.scripts[i].round {
					l.do(i, o, true)
				}
				if time.Now().After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

func (l *loadRun) nextID(client int) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	return fmt.Sprintf("%s%d-%d", l.prefix, client, l.seq)
}

func (l *loadRun) fail(msg string) {
	l.mu.Lock()
	l.failed++
	if len(l.wrong) < 8 {
		l.wrong = append(l.wrong, "failed: "+msg)
	}
	l.mu.Unlock()
}

func (l *loadRun) incorrect(msg string) {
	l.mu.Lock()
	if len(l.wrong) < 8 {
		l.wrong = append(l.wrong, msg)
	}
	l.mu.Unlock()
}

func (l *loadRun) do(ci int, o op, keep bool) {
	c, s := l.clients[ci], l.scripts[ci]
	if l.quiesce {
		if o.kind == opQuery {
			l.gate.RLock()
			defer l.gate.RUnlock()
		} else {
			l.gate.Lock()
			defer l.gate.Unlock()
		}
	}
	id := l.nextID(ci)
	smp := sample{kind: o.kind, pq: o.pq, id: id}
	start := time.Now()
	switch o.kind {
	case opQuery:
		res, err := c.query(l.base+"/query", o.pq.body, id, o.pq.cap > 0)
		if err != nil || res.status != http.StatusOK || res.errMsg != "" {
			l.fail(fmt.Sprintf("query %s: %v %s", id, err, res.errMsg))
			return
		}
		smp.lat, smp.first, smp.bytes, smp.matches = res.total, res.first, res.bytes, res.matches
		if res.stats != nil {
			smp.planHit = res.stats.PlanCacheHit
			for _, leg := range res.stats.Shards {
				smp.legBytes += leg.Bytes
			}
		}
		if err := checkAnswer(l.g, o.pq, &res); err != nil {
			l.incorrect(fmt.Sprintf("query %s: %v", id, err))
		}
	case opUpdate:
		req := s.z.propose(nil)
		body, _ := json.Marshal(req) // plain struct: cannot fail
		var ur server.UpdateResponse
		lat, err := c.post(l.base+"/update", body, id, &ur)
		if err != nil {
			l.fail(fmt.Sprintf("update %s: %v", id, err))
			return
		}
		s.z.ack(req, ur.NodeID)
		smp.lat, smp.mutations, smp.wait = lat, 1, time.Duration(ur.WaitMicros)*time.Microsecond
	case opBulk:
		reqs := s.z.batch(s.bulk)
		body, _ := json.Marshal(server.BulkUpdateRequest{Updates: reqs})
		var br server.BulkUpdateResponse
		lat, err := c.post(l.base+"/update/bulk", body, id, &br)
		if err != nil {
			l.fail(fmt.Sprintf("bulk update %s: %v", id, err))
			return
		}
		if br.Conflicts != 0 || len(br.Results) != len(reqs) {
			l.incorrect(fmt.Sprintf("bulk update %s: %d conflicts, %d results for %d mutations", id, br.Conflicts, len(br.Results), len(reqs)))
			return
		}
		for i, r := range reqs {
			s.z.ack(r, br.Results[i].NodeID)
		}
		smp.lat, smp.mutations, smp.wait = lat, len(reqs), time.Duration(br.WaitMicros)*time.Microsecond
	}
	smp.end = time.Now()
	l.mu.Lock()
	l.done++
	l.mu.Unlock()
	l.tr.record(id, "client."+[...]string{"query", "update", "bulk"}[o.kind], "", start, smp.end)
	if keep {
		l.mu.Lock()
		l.samples = append(l.samples, smp)
		l.mu.Unlock()
	}
}

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
