package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"time"

	"goldweb/internal/analysis"
	"goldweb/internal/analysis/verify"
	"goldweb/internal/artifact"
	"goldweb/internal/catalog"
	"goldweb/internal/core"
	"goldweb/internal/cwm"
	"goldweb/internal/htmlgen"
	"goldweb/internal/server"
	"goldweb/internal/workload"
	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
	"goldweb/internal/xsd"
	"goldweb/internal/xslt"
)

// swapReplayer re-runs, on one model's successive versions, every stage
// catalog.Set runs, each under its own span: parse, structural
// validation, model build, lint gate, then server.Stage and Commit on a
// standalone server, then the layers inside Stage one by one. It keeps
// its own artifact stores so replays never touch the served catalog.
type swapReplayer struct {
	name  string
	srv   *server.Server
	store *artifact.Store // the intern re-run's store
	prev  []*artifact.Artifact
	sheet *xslt.Stylesheet

	reused, interned int64
}

func newSwapReplayer(name string, base []byte) (*swapReplayer, error) {
	sheet, err := core.MultiPageStylesheet()
	if err != nil {
		return nil, err
	}
	r := &swapReplayer{
		name:  name,
		srv:   server.NewEmpty(server.WithArtifactStore(artifact.NewStore()), server.WithMaxInflight(0)),
		store: artifact.NewStore(),
		sheet: sheet,
	}
	// Commit the current version first, so the first measured replay
	// interns against a live previous generation, as a catalog swap does.
	if err := r.replay(nil, -1, 0, base); err != nil {
		r.srv.Close()
		return nil, err
	}
	r.reused, r.interned = 0, 0
	return r, nil
}

func (r *swapReplayer) close() {
	r.srv.Close()
	for _, a := range r.prev {
		a.Release()
	}
}

// replay runs the stages on data as children of span parent.
func (r *swapReplayer) replay(tr *tracer, parent int, op int64, data []byte) error {
	ctx := context.Background()
	schema := core.MustSchema()
	id := tr.begin("xmldom.parse", parent, op)
	doc, err := xmldom.ParseContext(ctx, data, xmldom.Limits{})
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay parse: %w", err)
	}
	id = tr.begin("xsd.validate", parent, op)
	verrs := schema.Validate(doc, xsd.ValidateOptions{ApplyDefaults: true, SkipIdentityConstraints: true})
	tr.end(id)
	if len(verrs) > 0 {
		return fmt.Errorf("replay validate: %v", verrs[0])
	}
	id = tr.begin("core.model_from_xml", parent, op)
	m, err := core.ModelFromXML(doc)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay model build: %w", err)
	}
	id = tr.begin("analysis.lint_model", parent, op)
	diags := analysis.LintModel(r.name+".xml", doc, schema)
	tr.end(id)
	if analysis.HasErrors(diags) {
		return fmt.Errorf("replay lint: %s", diags[0])
	}
	st := tr.begin("server.stage", parent, op)
	staged, err := r.srv.Stage(ctx, m)
	tr.end(st)
	if err != nil {
		return fmt.Errorf("replay stage: %w", err)
	}
	id = tr.begin("server.commit", parent, op)
	staged.Commit()
	tr.end(id)

	// The layers inside Stage, in the order buildSnapshot and the
	// shadow publish run them.
	id = tr.begin("core.to_xml", st, op)
	raw := m.ToXML()
	tr.end(id)
	id = tr.begin("xmldom.freeze", st, op)
	xmldom.Freeze(raw)
	tr.end(id)
	id = tr.begin("core.to_xml", st, op)
	pub := m.ToXML()
	tr.end(id)
	id = tr.begin("xsd.validate_full", st, op)
	verrs = core.ValidateDocument(pub)
	tr.end(id)
	if len(verrs) > 0 {
		return fmt.Errorf("replay full validation: %v", verrs[0])
	}
	id = tr.begin("xmldom.freeze", st, op)
	xmldom.Freeze(pub)
	tr.end(id)
	id = tr.begin("xmldom.serialize", st, op)
	xmldom.SerializeToString(raw, xmldom.WriteOptions{})
	tr.end(id)
	id = tr.begin("xmldom.serialize", st, op)
	xmldom.Pretty(raw)
	tr.end(id)
	id = tr.begin("cwm.export", st, op)
	cwm.ExportString(m)
	tr.end(id)
	pubID := tr.begin("htmlgen.publish", st, op)
	site, err := htmlgen.PublishDocument(pub, htmlgen.Options{Mode: htmlgen.MultiPage, SkipValidation: true})
	tr.end(pubID)
	if err != nil {
		return fmt.Errorf("replay publish: %w", err)
	}
	id = tr.begin("xslt.transform", pubID, op)
	_, err = r.sheet.TransformToBuffers(pub, publishParams())
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay transform: %w", err)
	}
	id = tr.begin("artifact.intern", st, op)
	refs := make([]*artifact.Artifact, 0, len(site.Order))
	for _, page := range site.Order {
		n := r.store.Len()
		refs = append(refs, r.store.Intern(pageType(page), site.Pages[page]))
		if r.store.Len() == n {
			r.reused++
		}
		r.interned++
	}
	tr.end(id)
	for _, a := range r.prev {
		a.Release()
	}
	r.prev = refs
	return nil
}

// publishParams are the multi-page stylesheet parameters htmlgen passes
// for an unfocused publication.
func publishParams() map[string]xpath.Value {
	return map[string]xpath.Value{"focus": xpath.String(""), "css": xpath.String("style.css")}
}

func pageType(page string) string {
	if strings.HasSuffix(page, ".css") {
		return "text/css; charset=utf-8"
	}
	return "text/html; charset=utf-8"
}

// sink is an in-process ResponseWriter that discards the body.
type sink struct {
	h      http.Header
	status int
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return len(p), nil
}
func (s *sink) reset() {
	clear(s.h)
	s.status = 0
}

// inProcessRequest rebuilds a logged request for a direct ServeHTTP call.
func inProcessRequest(path string, gz bool, etag string) (*http.Request, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, err
	}
	h := http.Header{}
	if gz {
		h["Accept-Encoding"] = []string{"gzip"}
	}
	if etag != "" {
		h["If-None-Match"] = []string{etag}
	}
	return &http.Request{
		Method: http.MethodGet, URL: u, Header: h, Host: "127.0.0.1",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		RequestURI: u.RequestURI(), RemoteAddr: "127.0.0.1:1",
	}, nil
}

// serveBatch is how many artifact.Serve calls one artifact.serve_ns
// sample averages: a single call is too short to time on its own.
const serveBatch = 32

// servingReplay re-runs logged socket requests in process, as children
// of their http.request spans: the whole catalog handler, then the
// model's application handler alone, then artifact serving alone (on an
// artifact the benchmark builds from the reference body). It returns
// net.rtt samples (socket time minus in-process handler time) and
// artifact.serve_ns samples.
type servingReplay struct {
	rtt     []int64
	serveNs []float64
	arts    map[string]*artifact.Artifact
	apps    map[string]http.Handler // built once per model, as the catalog does
}

func (sr *servingReplay) run(c *client, limit int) error {
	s := c.s
	if sr.arts == nil {
		sr.arts, sr.apps = map[string]*artifact.Artifact{}, map[string]http.Handler{}
	}
	catH := s.cat.Handler()
	var sk, sk2 sink
	sk.h, sk2.h = http.Header{}, http.Header{}
	stride := max(1, len(c.log)/max(1, limit))
	for i := 0; i < len(c.log); i += stride {
		rec := c.log[i]
		if rec.span < 0 || (rec.status != http.StatusOK && rec.status != http.StatusNotModified) {
			continue
		}
		t := s.targets[rec.target]
		name := s.models[t.model].name
		op := c.tr.spans[rec.span].Op
		etag := ""
		if rec.etag >= 0 {
			etag = c.etags[rec.etag]
		}
		req, err := inProcessRequest(t.path(s.models), rec.gzipSent, etag)
		if err != nil {
			return err
		}
		sk.reset()
		id := c.tr.begin("catalog.handler", int(rec.span), op)
		start := time.Now()
		catH.ServeHTTP(&sk, req)
		d := time.Since(start)
		c.tr.end(id)
		sr.rtt = append(sr.rtt, (rec.end-rec.start)-int64(d))

		app, err := inProcessRequest("/"+t.route, rec.gzipSent, etag)
		if err != nil {
			return err
		}
		sk.reset()
		appH := sr.apps[name]
		if appH == nil {
			appH = s.cat.Server(name).AppHandler()
			sr.apps[name] = appH
		}
		id2 := c.tr.begin("server.app_handler", id, op)
		appH.ServeHTTP(&sk, app)
		c.tr.end(id2)

		key := fmt.Sprintf("%s\x00%d\x00%s", name, rec.gen, t.route)
		a := sr.arts[key]
		if a == nil {
			body, ct, err := s.oracle.reference(name, rec.gen, t.route)
			if err != nil {
				return err
			}
			a = artifact.New(ct, body)
			sr.arts[key] = a
		}
		sk2.reset()
		id3 := c.tr.begin("artifact.serve", id2, op)
		a.Serve(&sk2, req, true)
		c.tr.end(id3)
		start = time.Now()
		for j := 0; j < serveBatch; j++ {
			sk2.reset()
			a.Serve(&sk2, req, true)
		}
		sr.serveNs = append(sr.serveNs, float64(time.Since(start).Nanoseconds())/serveBatch)
	}
	return nil
}

// countAllocs returns the fewest heap allocations f made over n calls,
// each after prep, on one P so no other goroutine's allocations count.
// A first untimed call fills the layer's pools.
func countAllocs(n int, prep, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prep()
	f()
	best := ^uint64(0)
	var a, b runtime.MemStats
	for i := 0; i < n; i++ {
		prep()
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		best = min(best, b.Mallocs-a.Mallocs)
	}
	return float64(best)
}

// allocCounts measures the per-call allocation counts of the swap,
// publish and serving layers on one fixed input (the generated f4d8h2
// model), so they repeat exactly from run to run.
func allocCounts(src []byte) (map[string]float64, error) {
	out := map[string]float64{}
	schema := core.MustSchema()
	noop := func() {}
	out["xmldom.parse_allocs"] = countAllocs(10, noop, func() { xmldom.Parse(src) })
	var doc *xmldom.Node
	out["xsd.validate_allocs"] = countAllocs(10, func() { doc, _ = xmldom.Parse(src) }, func() {
		schema.Validate(doc, xsd.ValidateOptions{ApplyDefaults: true, SkipIdentityConstraints: true})
	})
	m, err := buildModel(src)
	if err != nil {
		return nil, err
	}
	pub := m.ToXML()
	if errs := core.ValidateDocument(pub); len(errs) > 0 {
		return nil, fmt.Errorf("alloc input invalid: %v", errs[0])
	}
	xmldom.Freeze(pub)
	sheet, err := core.MultiPageStylesheet()
	if err != nil {
		return nil, err
	}
	params := publishParams()
	out["xslt.transform_allocs"] = countAllocs(10, noop, func() { sheet.TransformToBuffers(pub, params) })
	site, err := htmlgen.PublishDocument(pub, htmlgen.Options{Mode: htmlgen.MultiPage, SkipValidation: true})
	if err != nil {
		return nil, err
	}
	a := artifact.New("text/html; charset=utf-8", site.Pages[htmlgen.IndexName])
	sk := &sink{h: http.Header{}}
	worst := 0.0
	for _, hdr := range []http.Header{
		{},
		{"Accept-Encoding": {"gzip"}},
		{"If-None-Match": {a.ETag()}},
	} {
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/site/index.html"}, Header: hdr}
		a.Serve(sk, req, true) // materialize the gzip variant and the header map
		worst = max(worst, countAllocs(50, sk.reset, func() { a.Serve(sk, req, true) }))
	}
	out["artifact.serve_allocs"] = worst
	return out, nil
}

// lintCorpus is the lint workload's input: every file with its golden
// findings and the schema it is linted against.
type lintCorpus struct {
	files []lintFile
	gold  *xsd.Schema
	lib   *xsd.Schema
}

// newLintCorpus is the lint workload's measured set-up: read the corpus
// and its goldens, load the library example's multi-file schema, and
// compile the GOLD schema and both built-in stylesheets.
func newLintCorpus(root string) (*lintCorpus, error) {
	files, err := loadLintCorpus(root)
	if err != nil {
		return nil, err
	}
	gold, err := xsd.ParseSchemaString(core.SchemaXSD)
	if err != nil {
		return nil, err
	}
	lib, err := xsd.LoadSchemaFile(root + "/examples/library/library.xsd")
	if err != nil {
		return nil, err
	}
	for _, b := range []struct{ name, src string }{{"single.xsl", core.SingleXSL}, {"multi.xsl", core.MultiXSL}} {
		if _, err := xslt.CompileStylesheetString(b.src, xslt.CompileOptions{}); err != nil {
			return nil, err
		}
		files = append(files, lintFile{name: b.name, src: []byte(b.src)})
	}
	return &lintCorpus{files: files, gold: gold, lib: lib}, nil
}

// pass lints every file once and compares the rendered findings with
// the golden. Traced passes re-run the stylesheet linter's own layers
// (compile, program verification, content graph) as children; busy is
// the time spent in the linter's entry points alone.
func (lc *lintCorpus) pass(tr *tracer, parent int, op int64) (busy time.Duration, attempted, failed int64, first error) {
	for _, f := range lc.files {
		schema := lc.gold
		if f.library {
			schema = lc.lib
		}
		var diags []analysis.Diagnostic
		start := time.Now()
		if f.model {
			id := tr.begin("analysis.lint_model_source", parent, op)
			diags = analysis.LintModelSource(f.name, f.src, schema)
			tr.end(id)
			busy += time.Since(start)
		} else {
			id := tr.begin("analysis.lint_stylesheet", parent, op)
			diags = analysis.LintStylesheet(f.name, f.src, schema)
			tr.end(id)
			busy += time.Since(start)
			if tr != nil {
				lintLayers(tr, id, op, f.src, schema)
			}
		}
		attempted++
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		if b.String() != f.want {
			failed++
			if first == nil {
				first = fmt.Errorf("lint %s: findings differ from the golden:\n%s", f.name, b.String())
			}
		}
	}
	return busy, attempted, failed, first
}

// lintLayers re-runs the layers LintStylesheet is built on.
func lintLayers(tr *tracer, parent int, op int64, src []byte, schema *xsd.Schema) {
	doc, err := xmldom.Parse(src)
	if err != nil {
		return
	}
	id := tr.begin("xslt.compile", parent, op)
	sheet, err := xslt.CompileStylesheet(doc, xslt.CompileOptions{})
	tr.end(id)
	if err == nil && sheet.Program() != nil {
		id = tr.begin("verify.program", parent, op)
		verify.Program(sheet.Program())
		tr.end(id)
	}
	id = tr.begin("analysis.content_graph", parent, op)
	analysis.NewContentGraph(schema)
	tr.end(id)
}

// reconcile re-times the cases of the last committed single-sample
// bench file that overlap this benchmark's layers (full validation and
// multi-page publication of f4d8h2, a catalog swap of f2d4h2, lint of
// the built-ins) as medians of repeated calls, so the two can be
// compared on the same machine.
func reconcile(ctx context.Context) ([]named, error) {
	timeMedian := func(n int, f func() error) (float64, error) {
		var ds []int64
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			ds = append(ds, int64(time.Since(start)))
		}
		return quantile(durs(ds, time.Microsecond), 0.5), nil
	}
	var out []named
	add := func(name string, n int, unit string, f func() error) error {
		v, err := timeMedian(n, f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if unit == "ms" {
			v /= 1000
		}
		out = append(out, named{name, v, unit})
		return nil
	}
	schema := core.MustSchema()
	f4 := workload.GenModel(workload.ModelSpec{Facts: 4, Dims: 8, Depth: 2})
	doc := f4.ToXML()
	if err := add("reconcile.validate_f4d8h2_us", 50, "us", func() error {
		if errs := schema.Validate(doc, xsd.ValidateOptions{}); len(errs) > 0 {
			return errs[0]
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := add("reconcile.publish_multi_f4d8h2_us", 30, "us", func() error {
		_, err := htmlgen.Publish(f4, htmlgen.Options{Mode: htmlgen.MultiPage})
		return err
	}); err != nil {
		return nil, err
	}
	data := []byte(workload.GenModel(workload.ModelSpec{Facts: 2, Dims: 4, Depth: 2}).XMLString())
	cat := catalog.New(catalog.Options{DisableRetry: true})
	defer cat.Close()
	if err := add("reconcile.swap_f2d4h2_ms", 30, "ms", func() error {
		return cat.Set(ctx, "bench", data)
	}); err != nil {
		return nil, err
	}
	sales := []byte(core.SampleSales().XMLString())
	if err := add("reconcile.lint_builtins_ms", 10, "ms", func() error {
		n := len(analysis.LintStylesheet("single.xsl", []byte(core.SingleXSL), schema)) +
			len(analysis.LintStylesheet("multi.xsl", []byte(core.MultiXSL), schema)) +
			len(analysis.LintModelSource("sales.xml", sales, schema))
		if n != 0 {
			return fmt.Errorf("%d findings on the clean built-ins", n)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
