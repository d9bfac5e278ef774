package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goldweb/internal/catalog"
	"goldweb/internal/core"
	"goldweb/internal/server"
	"goldweb/internal/xsd"
	"goldweb/internal/xslt"
)

// Browser mix of the in-process load/browser-mix scenario: most
// clients accept gzip, and a repeat view revalidates with the ETag the
// client learned for that URL.
const (
	gzipFrac = 0.9
	condFrac = 0.6
)

// stack is the system under test: a catalog of models served by a
// net/http server on a 127.0.0.1 listener, in the benchmark's process.
type stack struct {
	cat     *catalog.Catalog
	models  []modelSrc
	oracle  *oracle
	floors  []atomic.Uint64 // generation the benchmark last saw committed, per model
	targets []target
	urls    []string

	hs     *http.Server
	served chan error
	hc     *http.Client
	tr     *http.Transport
}

// newStack is the measured set-up of the serving workloads: compile the
// schema and both presentation stylesheets (what a fresh process does
// before it serves), publish every model through catalog.Set, and warm
// the caches by requesting every target once identity and once gzip.
func newStack(ctx context.Context, models []modelSrc, targets []target) (*stack, error) {
	if _, err := xsd.ParseSchemaString(core.SchemaXSD); err != nil {
		return nil, err
	}
	for _, src := range []string{core.SingleXSL, core.MultiXSL} {
		if _, err := xslt.CompileStylesheetString(src, xslt.CompileOptions{}); err != nil {
			return nil, err
		}
	}
	s := &stack{
		cat:     catalog.New(catalog.Options{DisableRetry: true}),
		models:  append([]modelSrc(nil), models...),
		oracle:  newOracle(),
		floors:  make([]atomic.Uint64, len(models)),
		targets: targets,
	}
	for i, m := range models {
		if _, _, err := s.set(ctx, i, m.src, nil, 0); err != nil {
			s.cat.Close()
			return nil, err
		}
	}
	h := s.cat.Handler()
	for _, t := range targets {
		for _, enc := range []string{"", "gzip"} {
			req := httptest.NewRequest(http.MethodGet, t.path(models), nil)
			if enc != "" {
				req.Header.Set("Accept-Encoding", enc)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				s.cat.Close()
				return nil, fmt.Errorf("warm %s: status %d", t.path(models), rec.Code)
			}
		}
	}
	return s, nil
}

// set swaps model i to src through catalog.Set, timing only the Set
// call (as span catalog.set when traced), and records the new
// generation with the oracle. It fails unless the generation moved up
// by exactly one: the benchmark is the only writer.
func (s *stack) set(ctx context.Context, i int, src []byte, tr *tracer, op int64) (time.Duration, int, error) {
	name := s.models[i].name
	before := s.floors[i].Load()
	sp := tr.begin("catalog.set", -1, op)
	start := time.Now()
	err := s.cat.Set(ctx, name, src)
	d := time.Since(start)
	tr.end(sp)
	if err != nil {
		return d, sp, fmt.Errorf("set %s: %w", name, err)
	}
	gen := s.cat.Server(name).Generation()
	// Without a listener no response can name an older generation, so
	// only the newest is kept: holding every version would grow the heap
	// over a swap-churn run and change the collector's pace.
	s.oracle.record(name, gen, src, s.hs != nil)
	s.models[i].src = src
	s.floors[i].Store(gen)
	if gen != before+1 {
		return d, sp, fmt.Errorf("set %s: generation %d after %d", name, gen, before)
	}
	return d, sp, nil
}

// listen serves h (the catalog's handler, unless a test wraps it) on a
// loopback listener and makes a client that keeps at most conns
// connections to it.
func (s *stack) listen(conns int, h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true, // the client negotiates gzip itself
	}
	s.hc = &http.Client{Transport: s.tr}
	base := "http://" + ln.Addr().String()
	s.urls = make([]string, len(s.targets))
	for i, t := range s.targets {
		s.urls[i] = base + t.path(s.models)
	}
	return nil
}

// close stops the HTTP server (waiting for its goroutine) and the
// catalog.
func (s *stack) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.hs.Shutdown(ctx)
		cancel()
		<-s.served
		s.tr.CloseIdleConnections()
		s.hs = nil
	}
	s.cat.Close()
}

// reqRecord is one request in the benchmark's log. Times are
// nanoseconds since the run epoch; in a closed loop due == start. It
// holds no pointers, so the growing log costs the collector nothing to
// scan and cannot slow the server it shares the process with.
type reqRecord struct {
	due, start, end int64
	target          int32
	span            int32 // http.request span id in the worker's tracer, -1 untraced
	etag            int32 // If-None-Match sent, an index into client.etags; -1 none
	status          int16
	gzipSent        bool
	gzipGot         bool
	gen             uint64
	wire            int64
}

// client is one load-generator worker with its own connection budget
// share, learned ETags, response checks and request log.
type client struct {
	s        *stack
	epoch    time.Time
	obs      *observer
	learned  map[int32]int32 // target → the ETag it last answered
	etags    []string
	etagIdx  map[string]int32
	lastGen  []uint64
	buf      bytes.Buffer
	log      []reqRecord
	failed   int64
	firstErr error
	tr       *tracer
	op       int64 // op-id base so span ops are unique across workers
}

func newClient(s *stack, epoch time.Time, seed maphash.Seed, tr *tracer, opBase int64) *client {
	return &client{s: s, epoch: epoch, obs: newObserver(seed),
		learned: map[int32]int32{}, etagIdx: map[string]int32{},
		lastGen: make([]uint64, len(s.models)), tr: tr, op: opBase}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// do sends one GET for target ti and checks what can be checked
// without the reference: status, generation monotonicity, and that a
// 304 answers the ETag the client sent. Bodies go to the observer.
func (c *client) do(ctx context.Context, ti int32, gz, cond bool, due time.Time) {
	t := c.s.targets[ti]
	rec := reqRecord{target: ti, span: -1, etag: -1, gzipSent: gz}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.s.urls[ti], nil)
	if err != nil {
		c.fail(err)
		return
	}
	if gz {
		req.Header["Accept-Encoding"] = []string{"gzip"}
	}
	sent := ""
	if et, ok := c.learned[ti]; ok && cond {
		sent = c.etags[et]
		req.Header["If-None-Match"] = []string{sent}
		rec.etag = et
	}
	floor := c.s.floors[t.model].Load()
	c.op++
	sp := c.tr.begin("http.request", -1, c.op)
	start := time.Now()
	resp, err := c.s.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	c.tr.end(sp)
	rec.span = int32(sp)
	rec.due, rec.start, rec.end = int64(due.Sub(c.epoch)), int64(start.Sub(c.epoch)), int64(end.Sub(c.epoch))
	defer func() { c.log = append(c.log, rec) }()
	if err != nil {
		c.fail(fmt.Errorf("GET %s: %w", c.s.urls[ti], err))
		return
	}
	rec.status = int16(resp.StatusCode)
	rec.wire = int64(c.buf.Len())
	rec.gzipGot = resp.Header.Get("Content-Encoding") == "gzip"
	rec.gen, err = strconv.ParseUint(resp.Header.Get(server.GenerationHeader), 10, 64)
	if err != nil {
		c.fail(fmt.Errorf("GET %s: generation header: %w", c.s.urls[ti], err))
		return
	}
	if rec.gen < floor || rec.gen < c.lastGen[t.model] {
		c.fail(fmt.Errorf("GET %s: generation %d after %d was committed and %d was seen", c.s.urls[ti], rec.gen, floor, c.lastGen[t.model]))
		return
	}
	c.lastGen[t.model] = rec.gen
	key := obsKey{model: c.s.models[t.model].name, gen: rec.gen, route: t.route}
	switch resp.StatusCode {
	case http.StatusOK:
		key.gzip = rec.gzipGot
		etag := resp.Header.Get("Etag")
		c.obs.add200(key, c.buf.Bytes(), etag)
		idx, ok := c.etagIdx[etag]
		if !ok {
			idx = int32(len(c.etags))
			c.etags = append(c.etags, etag)
			c.etagIdx[etag] = idx
		}
		c.learned[ti] = idx
	case http.StatusNotModified:
		if sent == "" || resp.Header.Get("Etag") != sent {
			c.fail(fmt.Errorf("GET %s: 304 with ETag %q for If-None-Match %q", c.s.urls[ti], resp.Header.Get("Etag"), sent))
			return
		}
		c.obs.add304(key, sent)
	default:
		c.fail(fmt.Errorf("GET %s: status %d", c.s.urls[ti], resp.StatusCode))
	}
}

// closedLoop runs one worker per client, each sending its next request
// as soon as the previous one completed, until the deadline.
func closedLoop(ctx context.Context, clients []*client, seed int64, deadline time.Time) {
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
			n := len(c.s.targets)
			for {
				now := time.Now()
				if !now.Before(deadline) || ctx.Err() != nil {
					return
				}
				c.do(ctx, int32(rng.Intn(n)), rng.Float64() < gzipFrac, rng.Float64() < condFrac, now)
			}
		}(w, c)
	}
	wg.Wait()
}

// planned is one open-loop request: what to send. Its due time is its
// index times the interval.
type planned struct {
	target   int32
	gz, cond bool
}

// openLoop sends plan[i] when it falls due at epoch + i·interval,
// whether or not earlier requests have completed: the workers take the
// next due request as they free up, so a stall makes later requests
// late and their latency, timed from the due time, shows the wait.
// Requests not sent by the grace deadline count as failed.
func openLoop(ctx context.Context, clients []*client, plan []planned, epoch time.Time, interval time.Duration, grace time.Duration) (unsent int64, err error) {
	pacers := make([]*pacer, len(clients))
	for i := range pacers {
		if pacers[i], err = newPacer(); err != nil {
			for _, p := range pacers[:i] {
				p.close()
			}
			return 0, err
		}
	}
	var next, dropped atomic.Int64
	errs := make([]error, len(clients))
	last := epoch.Add(time.Duration(len(plan)) * interval).Add(grace)
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			defer pacers[w].close()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(plan)) {
					return
				}
				due := epoch.Add(time.Duration(i) * interval)
				if time.Until(due) > 0 {
					if errs[w] = pacers[w].waitUntil(due); errs[w] != nil {
						return
					}
				} else if time.Now().After(last) || ctx.Err() != nil {
					dropped.Add(1)
					continue
				}
				p := plan[i]
				c.do(ctx, p.target, p.gz, p.cond, due)
			}
		}(w, c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return dropped.Load(), e
		}
	}
	return dropped.Load(), nil
}
