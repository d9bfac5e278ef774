package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"goldweb/internal/htmlgen"
)

// Open-loop schedule of browse-during-swaps, fixed so every seed and
// every commit offers the same load: requests fall due every
// 1/duringSwapsRate seconds, a quarter of them for the swapped model,
// and the writer swaps that model every swapPeriod plus a seeded jitter
// of up to a quarter period.
const (
	duringSwapsRate  = 2500.0
	swapModelShare   = 0.25
	swapPeriod       = 500 * time.Millisecond
	openLoopGrace    = 5 * time.Second
	probeSeconds     = 1.0
	baselineFraction = 0.4 // of a traced run, measured untraced
	traceRounds      = 2   // untraced/traced alternations in a traced run
	replayRequests   = 4000
	setupRepeats     = 11 // per run; setup_s is their median
	// Op metrics are taken over one-second windows of a phase (at least
	// minWindows); a second holds exactly two swap periods of
	// browse-during-swaps, so every window sees the same schedule.
	window     = time.Second
	minWindows = 5
	// browse-warm is measured on one connection and one P. With a
	// connection per core, client and server goroutines wake each other
	// across the two vCPUs on every request, and what that costs depends
	// on the neighbours' load on the host: its throughput spread over a
	// quarter between runs of the same code. On one P the request chain
	// stays on one core and measures the program's cost per request.
	browseWarmConns = 1
	browseWarmProcs = 1
)

// bench holds one run's inputs and the system under test.
type bench struct {
	cfg     config
	models  []modelSrc
	targets []target
	swapIdx int     // index of swapModel in models
	swapTgt []int32 // its targets
	rng     *rand.Rand
	perm    []int
	swapN   int
	conns   int
	epoch   time.Time
	hseed   maphash.Seed
	opBase  int64

	s         *stack
	lint      *lintCorpus
	replayers map[int]*swapReplayer
	tracers   []*tracer
	clients   []*client
	out       outcome
}

func newBench(cfg config) (*bench, error) {
	models, err := baseModels(cfg.root)
	if err != nil {
		return nil, err
	}
	b := &bench{
		cfg:       cfg,
		models:    models,
		swapIdx:   -1,
		rng:       rand.New(rand.NewSource(cfg.seed)),
		conns:     runtime.NumCPU(),
		hseed:     maphash.MakeSeed(),
		replayers: map[int]*swapReplayer{},
	}
	if cfg.workload == "browse-warm" {
		b.conns = browseWarmConns
	}
	b.perm = b.rng.Perm(len(models))
	focused := cfg.workload == "browse-during-swaps"
	for i, m := range models {
		if !descAttr.Match(m.src) {
			return nil, fmt.Errorf("model %s has no description attribute to edit", m.name)
		}
		mm, err := buildModel(m.src)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", m.name, err)
		}
		site, err := htmlgen.Publish(mm, htmlgen.Options{Mode: htmlgen.MultiPage})
		if err != nil {
			return nil, err
		}
		if m.name == swapModel {
			b.swapIdx = i
		}
		for _, r := range modelRoutes(site, sortedFacts(htmlgen.FocusTargets(mm)), focused) {
			if i == b.swapIdx {
				b.swapTgt = append(b.swapTgt, int32(len(b.targets)))
			}
			b.targets = append(b.targets, target{model: i, route: r})
		}
	}
	if b.swapIdx < 0 {
		return nil, fmt.Errorf("catalog has no model %s", swapModel)
	}
	return b, nil
}

// setup is the measured set-up: the lint corpus for lint-corpus, the
// served catalog with warm caches for the other workloads.
func (b *bench) setup(ctx context.Context) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	var err error
	if b.cfg.workload == "lint-corpus" {
		b.lint, err = newLintCorpus(b.cfg.root)
	} else {
		b.s, err = newStack(ctx, b.models, b.targets)
	}
	return time.Since(start), err
}

func (b *bench) teardown() {
	for _, r := range b.replayers {
		r.close()
	}
	if b.s != nil {
		b.s.close()
	}
}

// childSetup measures one set-up in a fresh process, so every repeat
// pays what a starting server pays (stylesheet compilation, interning,
// gzip variants) instead of reusing this process's shared state.
func (b *bench) childSetup(ctx context.Context) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", b.cfg.workload,
		"--seed", strconv.FormatInt(b.cfg.seed, 10), "--root", b.cfg.root)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rec struct {
		Setup *float64 `json:"setup_s"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil || rec.Setup == nil {
		return 0, fmt.Errorf("set-up process printed %q", out)
	}
	return *rec.Setup, nil
}

func (b *bench) newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	t := newTracer(b.epoch)
	b.tracers = append(b.tracers, t)
	return t
}

// newClients makes one load-generator worker per connection.
func (b *bench) newClients(traced bool) []*client {
	cs := make([]*client, b.conns)
	for i := range cs {
		b.opBase += 1 << 32
		cs[i] = newClient(b.s, b.epoch, b.hseed, b.newTracer(traced), b.opBase)
	}
	b.clients = append(b.clients, cs...)
	return cs
}

// phaseStats is one measured phase.
type phaseStats struct {
	start   time.Time
	lat     []int64 // the workload's operation latency, ns
	at      []int64 // when each operation was due, ns after start
	class   []int   // swap-churn: the swapped model; 0 elsewhere
	late    []int64 // generator lateness before each operation, ns
	swapLat []int64 // browse-during-swaps: the writer's catalog.Set latency
	clients []*client
	baseGen []uint64 // generation of each model when the phase began
	elapsed time.Duration
	gcs     uint32
	alloc   uint64
}

func (b *bench) phase(ctx context.Context, dur time.Duration, traced bool) (*phaseStats, error) {
	ps := &phaseStats{}
	if b.s != nil {
		for i := range b.s.floors {
			ps.baseGen = append(ps.baseGen, b.s.floors[i].Load())
		}
	}
	if b.cfg.workload == "browse-warm" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(browseWarmProcs))
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ps.start = start
	var err error
	switch b.cfg.workload {
	case "swap-churn":
		err = b.swapChurn(ctx, ps, start.Add(dur), b.newTracer(traced))
	case "browse-warm":
		ps.clients = b.newClients(traced)
		closedLoop(ctx, ps.clients, b.cfg.seed+int64(len(b.clients)), start.Add(dur))
		ps.fromLogs(false, start.Sub(b.epoch))
	case "browse-during-swaps":
		err = b.browseDuringSwaps(ctx, ps, start, dur, traced)
	case "lint-corpus":
		b.lintLoop(ps, start.Add(dur), b.newTracer(traced))
	}
	ps.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	ps.gcs, ps.alloc = m1.NumGC-m0.NumGC, m1.TotalAlloc-m0.TotalAlloc
	return ps, err
}

// merge appends a later phase's samples; the first phase's starting
// generations stay the baseline for cold views.
func (ps *phaseStats) merge(o *phaseStats) {
	if ps.baseGen == nil {
		ps.baseGen = o.baseGen
	}
	ps.lat = append(ps.lat, o.lat...)
	ps.late = append(ps.late, o.late...)
	ps.clients = append(ps.clients, o.clients...)
	ps.elapsed += o.elapsed
	ps.gcs += o.gcs
	ps.alloc += o.alloc
}

// fromLogs turns the clients' request logs into operation latencies,
// timed from the due time, and generator lateness: the wait past the due
// time in an open loop, the gap after the worker's previous request in a
// closed one.
func (ps *phaseStats) fromLogs(open bool, offset time.Duration) {
	for _, c := range ps.clients {
		prevEnd := int64(-1)
		for _, r := range c.log {
			ps.lat = append(ps.lat, r.end-r.due)
			ps.at = append(ps.at, r.due-int64(offset))
			switch {
			case open:
				ps.late = append(ps.late, r.start-r.due)
			case prevEnd >= 0:
				ps.late = append(ps.late, r.start-prevEnd)
			}
			prevEnd = r.end
		}
	}
}

// swapOnce applies the next seeded edit to model i and swaps it in. A
// failed swap is counted, not returned; the error is for broken inputs.
func (b *bench) swapOnce(ctx context.Context, i int, tr *tracer) (time.Duration, bool, error) {
	k := b.swapN
	b.swapN++
	data, err := editModel(b.s.models[i].src, b.rng, k+1)
	if err != nil {
		return 0, false, err
	}
	d, sp, err := b.s.set(ctx, i, data, tr, int64(k))
	b.out.attempted++
	if err != nil {
		b.out.fail(1, err)
		return d, false, nil
	}
	if tr != nil {
		if err := b.replayers[i].replay(tr, sp, int64(k), data); err != nil {
			return d, true, err
		}
	}
	return d, true, nil
}

// swapChurn: one writer in a closed loop swaps the catalog's models in
// a seeded round-robin order, each swap a small edit of the previous
// version. Nothing reads.
func (b *bench) swapChurn(ctx context.Context, ps *phaseStats, deadline time.Time, tr *tracer) error {
	last := time.Now()
	for {
		start := time.Now()
		if !start.Before(deadline) {
			return nil
		}
		ps.late = append(ps.late, int64(start.Sub(last)))
		i := b.perm[b.swapN%len(b.perm)]
		d, ok, err := b.swapOnce(ctx, i, tr)
		if err != nil {
			return err
		}
		if ok {
			ps.lat = append(ps.lat, int64(d))
			ps.at = append(ps.at, int64(start.Sub(ps.start)))
			ps.class = append(ps.class, i)
		}
		last = time.Now()
	}
}

// browseDuringSwaps: an open loop at duringSwapsRate over every view of
// every model, while one writer swaps swapModel on a fixed schedule.
func (b *bench) browseDuringSwaps(ctx context.Context, ps *phaseStats, start time.Time, dur time.Duration, traced bool) error {
	rng := rand.New(rand.NewSource(b.cfg.seed*1_000_003 + int64(len(b.clients))))
	plan := make([]planned, int(duringSwapsRate*dur.Seconds()))
	for i := range plan {
		t := int32(rng.Intn(len(b.targets)))
		if rng.Float64() < swapModelShare {
			t = b.swapTgt[rng.Intn(len(b.swapTgt))]
		}
		plan[i] = planned{target: t, gz: rng.Float64() < gzipFrac, cond: rng.Float64() < condFrac}
	}
	jitter := make([]time.Duration, int(dur/swapPeriod)+1)
	for i := range jitter {
		jitter[i] = time.Duration(rng.Int63n(int64(swapPeriod / 4)))
	}
	ps.clients = b.newClients(traced)
	tw := b.newTracer(traced)
	deadline := start.Add(dur)
	werr := make(chan error, 1)
	go func() {
		for j := range jitter {
			at := start.Add(time.Duration(j)*swapPeriod + jitter[j])
			if !at.Before(deadline) {
				break
			}
			time.Sleep(time.Until(at))
			d, ok, err := b.swapOnce(ctx, b.swapIdx, tw)
			if err != nil {
				werr <- err
				return
			}
			if ok {
				ps.swapLat = append(ps.swapLat, int64(d))
			}
		}
		werr <- nil
	}()
	unsent, err := openLoop(ctx, ps.clients, plan, start, time.Duration(float64(time.Second)/duringSwapsRate), openLoopGrace)
	if werr := <-werr; err == nil {
		err = werr
	}
	if unsent > 0 {
		b.out.attempted += unsent
		b.out.fail(unsent, fmt.Errorf("%d requests not sent within %v of their due time", unsent, openLoopGrace))
	}
	ps.fromLogs(true, start.Sub(b.epoch))
	return err
}

// lintLoop: closed-loop lint passes over the whole corpus. An
// operation's latency is the time spent in the linter's entry points,
// so the layer re-runs of a traced pass do not count.
func (b *bench) lintLoop(ps *phaseStats, deadline time.Time, tr *tracer) {
	last := time.Now()
	for k := int64(0); ; k++ {
		start := time.Now()
		if !start.Before(deadline) {
			return
		}
		ps.late = append(ps.late, int64(start.Sub(last)))
		sp := tr.begin("lint.pass", -1, k)
		d, attempted, failed, err := b.lint.pass(tr, sp, k)
		tr.end(sp)
		b.out.attempted += attempted
		b.out.fail(failed, err)
		ps.lat = append(ps.lat, int64(d))
		ps.at = append(ps.at, int64(start.Sub(ps.start)))
		last = time.Now()
	}
}

// windowed is quantile q of the operation latency, in unit, made steady
// against what moves a plain percentile between runs on a shared
// two-core machine. Operations are split into one-second windows and
// the interquartile mean of the per-window quantiles is taken: the
// slowest and fastest quarter of windows (a collection storm, a burst
// from a neighbour on the machine) are dropped, and the middle half is
// averaged, so the scheduler's slower and faster spells of several
// seconds are mixed in proportion rather than one of them winning the
// run. Operations of different classes (the models of swap-churn, whose
// swap times differ tenfold) are summarized per class and combined by
// geometric mean, so a quantile never falls in the gap between two
// classes' clusters and every class weighs the same relative change
// equally.
func (ps *phaseStats) windowed(q float64, unit time.Duration) float64 {
	perClass := map[int][]int{} // class → indices of its operations
	for i := range ps.lat {
		c := 0
		if ps.class != nil {
			c = ps.class[i]
		}
		perClass[c] = append(perClass[c], i)
	}
	n := ps.windowCount()
	logSum := 0.0
	for _, idx := range perClass {
		buckets := make([][]int64, n)
		for _, i := range idx {
			w := ps.window(i, n)
			buckets[w] = append(buckets[w], ps.lat[i])
		}
		var vals []float64
		for _, b := range buckets {
			if len(b) > 0 {
				vals = append(vals, quantile(durs(b, unit), q))
			}
		}
		logSum += math.Log(interquartileMean(vals))
	}
	return math.Exp(logSum / float64(len(perClass)))
}

// rate is operations per second: the per-window rates' interquartile
// mean.
func (ps *phaseStats) rate() float64 {
	n := ps.windowCount()
	counts := make([]float64, n)
	for i := range ps.lat {
		counts[ps.window(i, n)]++
	}
	for w := range counts {
		counts[w] /= ps.elapsed.Seconds() / float64(n)
	}
	return interquartileMean(counts)
}

func (ps *phaseStats) windowCount() int {
	return max(minWindows, int((ps.elapsed+window/2)/window))
}

// window is the window operation i fell due in, of n.
func (ps *phaseStats) window(i, n int) int {
	return min(n-1, max(0, int(ps.at[i]*int64(n)/int64(ps.elapsed))))
}

// coldStats finds, in the request log, the first request (by due time)
// for each (model, generation, view) key of a generation committed
// during the phase: the first view of an edited model.
func (ps *phaseStats) coldStats(targets []target) (cold []int64, requests int64) {
	var recs []reqRecord
	for _, c := range ps.clients {
		recs = append(recs, c.log...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].due < recs[j].due })
	type key struct {
		target int32
		gen    uint64
	}
	seen := map[key]bool{}
	for _, r := range recs {
		requests++
		m := targets[r.target].model
		if r.status == 0 || r.gen <= ps.baseGen[m] {
			continue
		}
		if k := (key{r.target, r.gen}); !seen[k] {
			seen[k] = true
			cold = append(cold, r.end-r.due)
		}
	}
	return cold, requests
}

// verify checks every response the clients recorded against the oracle
// and folds the clients' failures into the outcome.
func (b *bench) verify() {
	if b.s == nil {
		return
	}
	var obs []*observer
	for _, c := range b.clients {
		obs = append(obs, c.obs)
		b.out.attempted += int64(len(c.log))
		b.out.fail(c.failed, c.firstErr)
	}
	failed, err := b.s.oracle.verify(obs)
	b.out.fail(failed, err)
}

// finalCheck requests every target of every model once identity and
// once gzip over the socket, so swap-churn's last generations are
// checked against the oracle too.
func (b *bench) finalCheck(ctx context.Context) error {
	if err := b.s.listen(1, b.s.cat.Handler()); err != nil {
		return err
	}
	c := newClient(b.s, b.epoch, b.hseed, nil, 0)
	b.clients = append(b.clients, c)
	for i := range b.targets {
		c.do(ctx, int32(i), false, false, time.Now())
		c.do(ctx, int32(i), true, false, time.Now())
	}
	return nil
}

// liveHeapMiB is the live heap after a forced collection, once the
// benchmark has dropped its own request logs and references.
func (b *bench) liveHeapMiB() float64 {
	b.clients = nil
	if b.s != nil {
		b.s.oracle = newOracle()
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(ns []int64, q float64) float64 { return quantile(durs(ns, time.Millisecond), q) }
func us(ns []int64, q float64) float64 { return quantile(durs(ns, time.Microsecond), q) }

func (b *bench) errorRate() float64 {
	if b.out.attempted == 0 {
		return 1
	}
	return float64(b.out.failed) / float64(b.out.attempted)
}

// run measures the workload: untraced, the end-to-end metrics; traced,
// the per-layer metrics.
func (b *bench) run(ctx context.Context) (*outcome, error) {
	b.epoch = time.Now()
	if b.cfg.trace {
		return b.runTraced(ctx)
	}
	var setups []float64
	for i := 1; i < setupRepeats; i++ {
		d, err := b.childSetup(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	d, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer b.teardown()
	setups = append(setups, d.Seconds())
	if b.s != nil && b.cfg.workload != "swap-churn" {
		if err := b.s.listen(b.conns, b.s.cat.Handler()); err != nil {
			return nil, err
		}
	}
	ps, err := b.phase(ctx, time.Duration(b.cfg.seconds*float64(time.Second)), false)
	if err != nil {
		return nil, err
	}
	if b.cfg.workload == "swap-churn" {
		if err := b.finalCheck(ctx); err != nil {
			return nil, err
		}
	}
	o := &b.out
	switch b.cfg.workload {
	case "swap-churn":
		add(&o.named, "swap_ms_p50", ms(ps.lat, 0.5), "ms")
		add(&o.named, "swap_ms_p90", ms(ps.lat, 0.9), "ms")
		add(&o.named, "swap_ms_p99", ms(ps.lat, 0.99), "ms")
		add(&o.named, "swaps", float64(len(ps.lat)), "count")
	case "browse-warm":
		add(&o.named, "http_rps", float64(len(ps.lat))/ps.elapsed.Seconds(), "req/s")
		add(&o.named, "http_us_p50", us(ps.lat, 0.5), "us")
		add(&o.named, "http_us_p90", us(ps.lat, 0.9), "us")
		add(&o.named, "http_us_p99", us(ps.lat, 0.99), "us")
		add(&o.named, "requests", float64(len(ps.lat)), "count")
	case "browse-during-swaps":
		cold, _ := ps.coldStats(b.targets)
		add(&o.named, "offered_rps", duringSwapsRate, "req/s")
		add(&o.named, "http_rps", float64(len(ps.lat))/ps.elapsed.Seconds(), "req/s")
		add(&o.named, "http_us_p50", us(ps.lat, 0.5), "us")
		add(&o.named, "http_us_p90", us(ps.lat, 0.9), "us")
		add(&o.named, "http_us_p99", us(ps.lat, 0.99), "us")
		add(&o.named, "requests", float64(len(ps.lat)), "count")
		add(&o.named, "cold_page_ms_p50", ms(cold, 0.5), "ms")
		add(&o.named, "cold_pages", float64(len(cold)), "count")
		add(&o.named, "swap_ms_p50", ms(ps.swapLat, 0.5), "ms")
		add(&o.named, "swap_ms_p90", ms(ps.swapLat, 0.9), "ms")
		add(&o.named, "swaps", float64(len(ps.swapLat)), "count")
		add(&o.named, "loadgen.late_us_p50", us(ps.late, 0.5), "us")
		add(&o.named, "loadgen.late_us_p99", us(ps.late, 0.99), "us")
	case "lint-corpus":
		add(&o.named, "lint_corpus_ms_p50", ms(ps.lat, 0.5), "ms")
		add(&o.named, "lint_corpus_ms_p90", ms(ps.lat, 0.9), "ms")
		add(&o.named, "passes", float64(len(ps.lat)), "count")
	}
	setup := median(setups)
	add(&o.metrics, "setup_s", setup, "s")
	add(&o.metrics, "op_ms_p50", ps.windowed(0.5, time.Millisecond), "ms")
	add(&o.metrics, "ops_per_s", ps.rate(), "1/s")
	b.verify()
	ps = nil // the request log is the benchmark's, not the server's, memory
	heap := b.liveHeapMiB()
	add(&o.metrics, "live_heap_mb", heap, "MiB")
	add(&o.named, "setup_s", setup, "s")
	add(&o.named, "live_heap_mb", heap, "MiB")
	add(&o.named, "error_rate", b.errorRate(), "ratio")
	return o, nil
}

// layerSpans maps per-layer time metrics to the span they summarize.
var layerSpans = []struct{ metric, span string }{
	{"xmldom.parse_us", "xmldom.parse"},
	{"xsd.validate_us", "xsd.validate"},
	{"core.model_from_xml_us", "core.model_from_xml"},
	{"analysis.lint_model_us", "analysis.lint_model"},
	{"server.stage_us", "server.stage"},
	{"server.commit_us", "server.commit"},
	{"core.to_xml_us", "core.to_xml"},
	{"xmldom.freeze_us", "xmldom.freeze"},
	{"xsd.validate_full_us", "xsd.validate_full"},
	{"xmldom.serialize_us", "xmldom.serialize"},
	{"cwm.export_us", "cwm.export"},
	{"artifact.intern_us", "artifact.intern"},
	{"htmlgen.publish_us", "htmlgen.publish"},
	{"xslt.transform_us", "xslt.transform"},
	{"catalog.handler_us", "catalog.handler"},
	{"server.app_handler_us", "server.app_handler"},
	{"xslt.compile_us", "xslt.compile"},
	{"verify.program_us", "verify.program"},
	{"analysis.content_graph_us", "analysis.content_graph"},
	{"analysis.lint_stylesheet_us", "analysis.lint_stylesheet"},
}

// runTraced measures an untraced baseline, then the same loop traced,
// then probes whatever layers the workload's own operations do not
// reach (so every traced run reports every layer), then re-runs the
// logged requests in process and counts allocations.
func (b *bench) runTraced(ctx context.Context) (*outcome, error) {
	if _, err := b.setup(ctx); err != nil {
		return nil, err
	}
	defer b.teardown()
	if b.s == nil { // lint-corpus probes the serving and swap layers on the catalog
		var err error
		if b.s, err = newStack(ctx, b.models, b.targets); err != nil {
			return nil, err
		}
	}
	for i, m := range b.s.models {
		r, err := newSwapReplayer(m.name, m.src)
		if err != nil {
			return nil, err
		}
		b.replayers[i] = r
	}
	if b.cfg.workload != "swap-churn" && b.cfg.workload != "lint-corpus" {
		if err := b.s.listen(b.conns, b.s.cat.Handler()); err != nil {
			return nil, err
		}
	}
	// Untraced and traced phases alternate, so drift over the run (a
	// warming cache, a neighbour's load) cannot pass for tracing cost.
	total := time.Duration(b.cfg.seconds * float64(time.Second))
	baseDur := time.Duration(float64(total) * baselineFraction / traceRounds)
	tracedDur := total/traceRounds - baseDur
	base, traced := &phaseStats{}, &phaseStats{}
	for r := 0; r < traceRounds; r++ {
		p, err := b.phase(ctx, baseDur, false)
		if err != nil {
			return nil, err
		}
		base.merge(p)
		if p, err = b.phase(ctx, tracedDur, true); err != nil {
			return nil, err
		}
		traced.merge(p)
	}

	// Probes for the layers this workload's operations do not reach.
	st := summarize(mergeSpans(b.tracers))
	tr := b.newTracer(true)
	if len(st.durs["catalog.set"]) == 0 {
		for j := range b.perm {
			if _, _, err := b.swapOnce(ctx, b.perm[j], tr); err != nil {
				return nil, err
			}
		}
	}
	httpLog := base.clients
	if len(st.durs["http.request"]) == 0 {
		if err := b.s.listen(b.conns, b.s.cat.Handler()); err != nil {
			return nil, err
		}
		cs := b.newClients(true)
		closedLoop(ctx, cs, b.cfg.seed, time.Now().Add(time.Duration(probeSeconds*float64(time.Second))))
		httpLog = cs
	}
	if b.lint == nil {
		lc, err := newLintCorpus(b.cfg.root)
		if err != nil {
			return nil, err
		}
		b.lint = lc
		for k := int64(0); k < 3; k++ {
			sp := tr.begin("lint.pass", -1, k)
			_, attempted, failed, err := lc.pass(tr, sp, k)
			tr.end(sp)
			b.out.attempted += attempted
			b.out.fail(failed, err)
		}
	}

	// In-process re-runs of the logged socket requests.
	var sr servingReplay
	for _, c := range b.clients {
		if c.tr != nil {
			if err := sr.run(c, replayRequests/b.conns); err != nil {
				return nil, err
			}
		}
	}
	allocs, err := allocCounts(b.models[b.swapIdx].src)
	if err != nil {
		return nil, err
	}
	rec, err := reconcile(ctx)
	if err != nil {
		return nil, err
	}
	b.verify()

	spans := mergeSpans(b.tracers)
	st = summarize(spans)
	o := &b.out
	for _, l := range layerSpans {
		add(&o.metrics, l.metric, st.medianUS(l.span), "us")
	}
	for _, name := range []string{"xmldom.parse_allocs", "xsd.validate_allocs", "xslt.transform_allocs", "artifact.serve_allocs"} {
		add(&o.metrics, name, allocs[name], "count")
	}
	var reused, interned int64
	for _, r := range b.replayers {
		reused += r.reused
		interned += r.interned
	}
	add(&o.metrics, "artifact.intern_reuse_ratio", float64(reused)/float64(max(1, interned)), "ratio")
	add(&o.metrics, "swap.unattributed_frac", st.selfFrac("catalog.set"), "ratio")

	var hs phaseStats
	hs.clients, hs.baseGen = httpLog, base.baseGen
	if httpLog != nil && len(hs.baseGen) == 0 {
		hs.baseGen = make([]uint64, len(b.models))
	}
	cold, requests := hs.coldStats(b.targets)
	var n304, ngz, wire int64
	for _, c := range httpLog {
		for _, r := range c.log {
			switch {
			case r.status == http.StatusNotModified:
				n304++
			case r.gzipGot:
				ngz++
			}
			wire += r.wire
		}
	}
	reqs := float64(max(1, requests))
	add(&o.metrics, "server.cache_miss_ratio", float64(len(cold))/reqs, "ratio")
	add(&o.metrics, "artifact.ratio_304", float64(n304)/reqs, "ratio")
	add(&o.metrics, "artifact.ratio_gzip", float64(ngz)/reqs, "ratio")
	add(&o.metrics, "artifact.wire_bytes_per_req", float64(wire)/reqs, "bytes")
	add(&o.metrics, "net.rtt_us", us(sr.rtt, 0.5), "us")
	add(&o.metrics, "artifact.serve_ns", quantile(sortedFloats(sr.serveNs), 0.5), "ns")

	ops := float64(max(1, len(base.lat)))
	add(&o.metrics, "runtime.gc_per_op", float64(base.gcs)/ops, "count")
	add(&o.metrics, "runtime.alloc_bytes_per_op", float64(base.alloc)/ops, "bytes")
	add(&o.metrics, "loadgen.late_us_p99", us(base.late, 0.99), "us")
	add(&o.metrics, "trace.overhead_frac", ms(traced.lat, 0.5)/ms(base.lat, 0.5)-1, "ratio")

	// The printed table: every span's count, median and summed self time.
	for _, name := range st.names() {
		add(&o.named, "span "+name+" n", float64(len(st.durs[name])), "count")
		add(&o.named, "span "+name+" p50", st.medianUS(name), "us")
		add(&o.named, "span "+name+" self", float64(st.self[name])/1e6, "ms")
	}
	o.named = append(o.named, rec...)
	add(&o.named, "error_rate", b.errorRate(), "ratio")
	dir := filepath.Join(b.cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", b.cfg.workload, b.cfg.seed)), spans); err != nil {
		return nil, err
	}
	return o, nil
}
