// Command stwigbench measures stwigd end to end, as its clients see it, and
// layer by layer. It builds the servers in process through the public
// internal/server API and serves them over loopback TCP, so every request
// crosses net/http, admission, the reader gate, the engine and the NDJSON
// writer. Closed-loop clients drive one of four workloads for a fixed
// time; every answer is checked against baseline.VF2 on the benchmark's
// own copy of the graph, and every recovered graph against a model of the
// acknowledged updates.
//
//	stwigbench -workload hot_full -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with -trace 1 the
// per-layer ones). Lines before it starting with "#" are notes. A failed
// check exits 1.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"stwig/internal/graph"
	"stwig/internal/rmat"
	"stwig/internal/server"
)

// A run builds its deployment at least minSetups times and until
// setupBudget has passed (at most maxSetups); setup_s is their
// quietMedian, and the last build serves the run.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed for the request streams (order of queries, updates)")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for data dirs and span files")
	printOracle := flag.Bool("oracle", false, "print the workload's query pool with its oracle answers and exit")
	flag.Parse()
	w, ok := workloadByName(*wl)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "stwigbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if *printOracle {
		if err := dumpOracle(w); err != nil {
			fmt.Fprintln(os.Stderr, "stwigbench:", err)
			return 1
		}
		return 0
	}
	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1, out: *out}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stwigbench:", err)
		return 1
	}
	for _, n := range b.notes {
		fmt.Println("# " + n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stwigbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, m := range b.wrong {
			fmt.Fprintln(os.Stderr, "stwigbench: check failed:", m)
		}
		return 1
	}
	return 0
}

// dumpOracle prints every pool query of w with its oracle answer: the
// match count (capped at the query's max_matches) and the digest an
// uncapped answer must reproduce.
func dumpOracle(w *workload) error {
	g, err := rmat.Generate(w.graph)
	if err != nil {
		return err
	}
	pool, err := w.pool(g)
	if err != nil {
		return err
	}
	solve(g, pool)
	for i, pq := range pool {
		fmt.Printf("%d cap=%d matches=%d digest=%016x%016x query=%q\n", i, pq.cap, pq.want.n, pq.want.s1, pq.want.s2, pq.q.String())
	}
	return nil
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	seconds time.Duration
	traced  bool
	out     string

	tr    *tracer
	dep   *deployment
	g     *graph.Graph
	pool  []*poolQuery
	zs    []*zstate
	notes []string
	wrong []string

	setupS  float64
	heapMB  float64
	attempt int
	failed  int
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// phase is one timed window of load.
type phase struct {
	all         []sample // every operation completed in the window
	samples     []sample // those completed in the kept slices
	window      time.Duration
	cpu         time.Duration
	stealPc     float64 // over the whole window
	keptStealPc float64 // mean over the kept slices
	keptShare   float64 // kept slices over all slices
	rssMB       float64
}

func (b *bench) run() (*result, error) {
	runDir := filepath.Join(b.out, "run", fmt.Sprintf("%s-%d", b.w.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	b.tr = newTracer()
	b.note("nproc=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0))

	// Set-up: build and serve the deployment several times, keep the last.
	top := b.w.topology()
	var setups, setupSteal []float64
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		if b.dep != nil {
			b.dep.stop()
		}
		runtime.GC() // each build starts from a collected heap, not the last one's garbage
		before := readMark()
		dep, err := deploy(filepath.Join(runDir, fmt.Sprintf("setup%d", i)), top, b.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		after := readMark()
		setups = append(setups, after.at.Sub(before.at).Seconds())
		setupSteal = append(setupSteal, after.ticks.pctSince(before.ticks))
		b.dep = dep
	}
	defer func() { b.dep.stop() }()
	b.setupS = quietMedian(setups, setupSteal)
	b.note("set-ups: %d, median %.4fs", len(setups), b.setupS)
	b.heapMB = liveHeapMB()
	lapStart := time.Now()
	lap := func(what string) {
		b.note("wall %s=%.2fs", what, time.Since(lapStart).Seconds())
		lapStart = time.Now()
	}

	// The oracle's own copy of the graph, the pool and its answers.
	g, err := rmat.Generate(b.w.graph)
	if err != nil {
		return nil, err
	}
	b.g = g
	if b.pool, err = b.w.pool(g); err != nil {
		return nil, err
	}
	solve(g, b.pool)
	lap("oracle")

	nproc := runtime.NumCPU()
	scripts := b.w.scripts(b.pool, b.seed, nproc)
	for _, s := range scripts {
		if s.z != nil {
			b.zs = append(b.zs, s.z)
		}
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nproc,
		MaxConnsPerHost:     nproc,
		DisableCompression:  true,
	}}
	defer hc.CloseIdleConnections()
	l := newLoad("m", b.dep.front.url, nsName, g, b.tr, scripts, b.w.quiesce, hc)
	l.warm(b.w.warm)
	lap("warm-up")

	var timed phase
	var lay map[string]metric
	if !b.traced {
		timed = measure(l, b.seconds)
	} else {
		untraced := measure(l, b.seconds)
		b.tr.on.Store(true)
		timed = measure(l, b.seconds)
		b.tr.on.Store(false)
		if lay, err = b.layers(timed, untraced, hc); err != nil {
			return nil, err
		}
	}
	lap("load")
	b.note("steal_pct=%.2f over the timed window, %.2f over the %.0f%% of its slices kept (host /proc/stat)",
		timed.stealPc, timed.keptStealPc, 100*timed.keptShare)
	b.attempt, b.failed = l.done+l.failed, l.failed
	b.wrong = append(b.wrong, l.wrong...)

	// Restart: stop every node, reopen each data dir, check what came back.
	hc.CloseIdleConnections()
	b.dep.stop()
	recoveryS, scanMS, err := b.recover()
	if err != nil {
		b.wrong = append(b.wrong, err.Error())
	}
	lap("recovery")
	// recovery_s is a note, not a metric: its reopens fall in the last two
	// seconds of the run, and on a host with bursts of steal the ten-seed
	// spread of so short a window reached 0.27–0.36 where every figure
	// measured across the whole timed window stayed within 0.13.
	b.note("recovery_s=%.5f (median reopen time, summed over data nodes)", recoveryS)
	if b.traced {
		lay["journal.scan_ms"] = metric{scanMS, "ms"}
		b.writeSpans()
	}

	res := &result{Correct: len(b.wrong) == 0, Attempted: b.attempt, Failed: b.failed}
	if b.traced {
		res.Metrics = lay
	} else {
		res.Metrics = b.endToEnd(timed)
	}
	return res, nil
}

// sliceLen is the granularity of the steal filter in measure.
const sliceLen = 50 * time.Millisecond

// mark is a reading of the clock, the host's CPU ticks and the process's
// CPU time at a slice boundary.
type mark struct {
	at    time.Time
	ticks cpuTicks
	cpu   time.Duration
}

func readMark() mark { return mark{time.Now(), readSteal(), cpuTime()} }

// measure runs one timed window, cut into sliceLen slices. The hypervisor
// steals the host's CPU in bursts of a fraction of a second to minutes,
// and a window's figures drop by a third when a tenth of the host is
// stolen; so the phase keeps only the operations completed in the slices
// quiet picks, with the wall and CPU time of those slices.
func measure(l *loadRun, d time.Duration) phase {
	before := len(l.samples)
	marks := []mark{readMark()}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				marks = append(marks, readMark())
			case <-stop:
				return
			}
		}
	}()
	l.run(d)
	close(stop)
	<-done
	marks = append(marks, readMark())
	all := slices.Clone(l.samples[before:])

	steal := make([]float64, len(marks)-1)
	for i := range steal {
		steal[i] = marks[i+1].ticks.pctSince(marks[i].ticks)
	}
	kept := quiet(steal)
	p := phase{all: all, stealPc: marks[len(marks)-1].ticks.pctSince(marks[0].ticks), rssMB: peakRSSMB()}
	keep := 0
	for i, k := range kept {
		if !k {
			continue
		}
		keep++
		p.window += marks[i+1].at.Sub(marks[i].at)
		p.cpu += marks[i+1].cpu - marks[i].cpu
		p.keptStealPc += steal[i]
	}
	p.keptStealPc /= float64(keep)
	p.keptShare = float64(keep) / float64(len(kept))
	for _, s := range all {
		i, _ := slices.BinarySearchFunc(marks, s.end, func(m mark, t time.Time) int { return m.at.Compare(t) })
		// marks[i-1].at < s.end <= marks[i].at: the sample ended in slice i-1.
		if i > 0 && i <= len(kept) && kept[i-1] {
			p.samples = append(p.samples, s)
		}
	}
	return p
}

// quiet picks the measurements taken with no stolen tick, or, when fewer
// than a quarter of them are clean, the quarter with the least steal.
func quiet(steal []float64) []bool {
	order := make([]int, len(steal))
	clean := 0
	for i, s := range steal {
		order[i] = i
		if s == 0 {
			clean++
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	kept := make([]bool, len(steal))
	for _, i := range order[:max(clean, (len(order)+3)/4)] {
		kept[i] = true
	}
	return kept
}

// quietMedian is the median of the durations quiet keeps.
func quietMedian(durs, steal []float64) float64 {
	var xs []float64
	for i, k := range quiet(steal) {
		if k {
			xs = append(xs, durs[i])
		}
	}
	return percentile(xs, 50)
}

func (b *bench) endToEnd(p phase) map[string]metric {
	var qlat, first, ulat []float64
	for _, s := range p.samples {
		switch s.kind {
		case opQuery:
			qlat = append(qlat, ms(s.lat))
			if s.matches > 0 {
				first = append(first, ms(s.first))
			}
		case opUpdate:
			ulat = append(ulat, ms(s.lat))
		}
	}
	// Rates: operations per second of kept slices, split by kind in the
	// proportions of the whole window. Rare updates would otherwise read
	// as the noise of a few dozen counts in the kept slices.
	queries, mutations := 0, 0
	for _, s := range p.all {
		if s.kind == opQuery {
			queries++
		}
		mutations += s.mutations
	}
	opsPerS := float64(len(p.samples)) / p.window.Seconds()
	share := func(n int) float64 { return opsPerS * float64(n) / float64(len(p.all)) }
	// query_p90_ms is a note, not a metric: in an hour of up to 36% steal
	// its ten-seed spread on cluster_fanout reached 0.31, where every other
	// figure of the timed window stayed within 0.18.
	b.note("query_p90_ms=%.5f", percentile(slices.Clone(qlat), 90))
	b.note("kept samples: %d queries, %d single updates in %.2fs; window: %d operations, %d queries, %d mutations",
		len(qlat), len(ulat), p.window.Seconds(), len(p.all), queries, mutations)
	return map[string]metric{
		"setup_s":           {b.setupS, "s"},
		"query_p50_ms":      {percentile(qlat, 50), "ms"},
		"query_ttfr_p50_ms": {percentile(first, 50), "ms"},
		"queries_per_s":     {share(queries), "1/s"},
		"update_p50_ms":     {percentile(ulat, 50), "ms"},
		"updates_per_s":     {share(mutations), "1/s"},
		"cpu_ms_per_op":     {ms(p.cpu) / float64(len(p.samples)), "ms"},
		"heap_mb":           {b.heapMB, "MB"},
		"rss_peak_mb":       {p.rssMB, "MB"},
	}
}

// recover reopens each data dir at least minReopens times and until
// reopenBudget has passed (at most maxReopens); recovery_s sums each
// node's quietMedian.
const (
	minReopens   = 5
	maxReopens   = 60
	reopenBudget = 2 * time.Second
)

// recover reopens every data node's data dir, checks each recovered graph
// against the update model, and returns the summed median reopen time and
// how long scanning the first node's journal took.
func (b *bench) recover() (recoveryS, scanMS float64, err error) {
	for i, n := range b.dep.data {
		if i == 0 {
			scanMS = scanJournal(n.cfg.DataDir)
		}
		var times, steal []float64
		first := time.Now()
		for r := 0; r < minReopens || (r < maxReopens && time.Since(first) < reopenBudget); r++ {
			runtime.GC()
			before := readMark()
			srv, err := server.NewMulti(n.cfg)
			after := readMark()
			times = append(times, after.at.Sub(before.at).Seconds())
			steal = append(steal, after.ticks.pctSince(before.ticks))
			if err != nil {
				return 0, scanMS, fmt.Errorf("reopening %s %d: %w", n.role, i, err)
			}
			if r == 0 {
				err = b.checkSnapshot(srv)
			}
			srv.Close()
			if err != nil {
				return 0, scanMS, fmt.Errorf("%s %d after reopen: %w", n.role, i, err)
			}
		}
		recoveryS += quietMedian(times, steal)
	}
	return recoveryS, scanMS, nil
}

func (b *bench) checkSnapshot(srv *server.Server) error {
	got, err := snapshotOf(srv, nsName)
	if err != nil {
		return err
	}
	return checkRecovered(got, b.g, b.zs)
}

// writeSpans saves the traced window's spans as JSON lines and notes each
// span name's median self time: its duration minus the part of it its
// child spans cover.
func (b *bench) writeSpans() {
	dir := filepath.Join(b.out, "spans")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := os.MkdirAll(dir, 0o755); err == nil {
		if f, err := os.Create(path); err == nil {
			enc := json.NewEncoder(f)
			for _, s := range b.tr.spans {
				_ = enc.Encode(s) // best effort: the spans file is a diagnostic
			}
			if err := f.Close(); err == nil {
				b.note("spans: %d written to %s", len(b.tr.spans), path)
			}
		}
	}
	self := selfTimes(b.tr.spans)
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.note("self_ms %s p50=%.3f (n=%d)", n, percentile(self[n], 50), len(self[n]))
	}
}

// selfTimes groups spans by request and returns, per span name, each
// span's duration minus the union of its children's intervals.
func selfTimes(spans []span) map[string][]float64 {
	byID := map[string][]span{}
	for _, s := range spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	out := map[string][]float64{}
	for _, group := range byID {
		for _, s := range group {
			var kids [][2]int64
			for _, c := range group {
				if c.Parent == s.Name {
					kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
				}
			}
			covered := unionLen(kids)
			out[s.Name] = append(out[s.Name], ms(s.dur()-time.Duration(covered)))
		}
	}
	return out
}

func unionLen(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, end int64
	first := true
	var start int64
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if first || x[0] > end {
			if !first {
				total += end - start
			}
			start, end, first = x[0], x[1], false
		} else if x[1] > end {
			end = x[1]
		}
	}
	if !first {
		total += end - start
	}
	return total
}
