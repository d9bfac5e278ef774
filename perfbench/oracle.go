package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/maphash"
	"io"
	"strings"
	"sync"

	"goldweb/internal/artifact"
	"goldweb/internal/core"
	"goldweb/internal/cwm"
	"goldweb/internal/htmlgen"
	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// oracle produces the reference bytes every served body is checked
// against: for each (model, generation) the source the benchmark handed
// to catalog.Set, rebuilt into a model the way the catalog does and
// rendered by htmlgen.Publish (pages) or the export functions (views).
type oracle struct {
	mu       sync.Mutex
	versions map[string]map[uint64][]byte
	built    map[string]*refModel
}

type refModel struct {
	m     *core.Model
	sites map[string]*htmlgen.Site // mode + "\x00" + focus
}

func newOracle() *oracle {
	return &oracle{versions: map[string]map[uint64][]byte{}, built: map[string]*refModel{}}
}

// record notes that generation gen of model serves src, forgetting the
// model's older generations unless history is asked for.
func (o *oracle) record(model string, gen uint64, src []byte, history bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.versions[model] == nil || !history {
		o.versions[model] = map[uint64][]byte{}
	}
	o.versions[model][gen] = src
}

// buildModel parses, validates with defaults and builds a model, the
// catalog's parse and validate stages.
func buildModel(src []byte) (*core.Model, error) {
	doc, err := xmldom.Parse(src)
	if err != nil {
		return nil, err
	}
	if errs := core.MustSchema().Validate(doc, xsd.ValidateOptions{ApplyDefaults: true, SkipIdentityConstraints: true}); len(errs) > 0 {
		return nil, fmt.Errorf("invalid model: %v", errs[0])
	}
	return core.ModelFromXML(doc)
}

// reference returns the expected body and content type of route on
// generation gen of model.
func (o *oracle) reference(model string, gen uint64, route string) ([]byte, string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	src, ok := o.versions[model][gen]
	if !ok {
		return nil, "", fmt.Errorf("model %s: generation %d was never committed by the benchmark", model, gen)
	}
	key := fmt.Sprintf("%s\x00%d", model, gen)
	rm := o.built[key]
	if rm == nil {
		m, err := buildModel(src)
		if err != nil {
			return nil, "", err
		}
		rm = &refModel{m: m, sites: map[string]*htmlgen.Site{}}
		o.built[key] = rm
	}
	path, focus := splitRoute(route)
	const xmlCT = "text/xml; charset=utf-8"
	switch {
	case path == "model.xml":
		return []byte(xmldom.SerializeToString(rm.m.ToXML(), xmldom.WriteOptions{})), xmlCT, nil
	case path == "pretty":
		return []byte(xmldom.Pretty(rm.m.ToXML())), "text/plain; charset=utf-8", nil
	case path == "cwm.xmi":
		return []byte(cwm.ExportString(rm.m)), xmlCT, nil
	}
	mode, page := htmlgen.SinglePage, htmlgen.IndexName
	if p, ok := strings.CutPrefix(path, "site/"); ok {
		mode, page = htmlgen.MultiPage, p
	} else if path != "single" {
		return nil, "", fmt.Errorf("no reference for route %q", route)
	}
	sk := mode.String() + "\x00" + focus
	site := rm.sites[sk]
	if site == nil {
		var err error
		if site, err = htmlgen.Publish(rm.m, htmlgen.Options{Mode: mode, Focus: focus}); err != nil {
			return nil, "", err
		}
		rm.sites[sk] = site
	}
	body := site.Page(page)
	if body == nil {
		return nil, "", fmt.Errorf("reference site has no page %q", page)
	}
	return body, "text/html; charset=utf-8", nil
}

// obsKey identifies what a response claims to be.
type obsKey struct {
	model string
	gen   uint64
	route string
	gzip  bool // body arrived gzip-encoded
}

// bodyObs is one distinct (body, ETag) pair seen for an obsKey.
type bodyObs struct {
	body []byte
	etag string
	n    int64
}

// observer records responses cheaply on the request path: a 200 is
// reduced to a hash of its wire bytes and ETag, and only the first body
// with each hash is copied. verify later checks every distinct body
// once, so every response is checked without per-request decoding.
type observer struct {
	seed   maphash.Seed
	bodies map[obsKey]map[uint64]*bodyObs
	notMod map[obsKey]map[string]int64 // ETag the client sent → 304 count
}

func newObserver(seed maphash.Seed) *observer {
	return &observer{seed: seed, bodies: map[obsKey]map[uint64]*bodyObs{}, notMod: map[obsKey]map[string]int64{}}
}

func (ob *observer) add200(k obsKey, body []byte, etag string) {
	var h maphash.Hash
	h.SetSeed(ob.seed)
	h.Write(body)
	h.WriteString(etag)
	sum := h.Sum64()
	m := ob.bodies[k]
	if m == nil {
		m = map[uint64]*bodyObs{}
		ob.bodies[k] = m
	}
	if b := m[sum]; b != nil {
		b.n++
		return
	}
	m[sum] = &bodyObs{body: append([]byte(nil), body...), etag: etag, n: 1}
}

func (ob *observer) add304(k obsKey, sent string) {
	m := ob.notMod[k]
	if m == nil {
		m = map[string]int64{}
		ob.notMod[k] = m
	}
	m[sent]++
}

// verify checks every recorded response against the references: a 200
// body (gunzipped when encoded) must equal the reference bytes and
// carry the reference's content-addressed ETag, and a 304 must answer
// an If-None-Match that named the reference's ETag. It returns the
// number of responses that failed and the first failure.
func (o *oracle) verify(obs []*observer) (int64, error) {
	var failed int64
	var first error
	fail := func(n int64, err error) {
		failed += n
		if first == nil {
			first = err
		}
	}
	etags := map[obsKey]string{}
	refFor := func(k obsKey) ([]byte, string, error) {
		ref, ct, err := o.reference(k.model, k.gen, k.route)
		if err != nil {
			return nil, "", err
		}
		bk := k
		bk.gzip = false
		if _, ok := etags[bk]; !ok {
			etags[bk] = artifact.New(ct, ref).ETag()
		}
		return ref, etags[bk], nil
	}
	for _, ob := range obs {
		for k, m := range ob.bodies {
			ref, etag, err := refFor(k)
			for _, b := range m {
				if err != nil {
					fail(b.n, err)
					continue
				}
				body := b.body
				if k.gzip {
					if body, err = gunzip(body); err != nil {
						fail(b.n, fmt.Errorf("%s gen %d %s: %w", k.model, k.gen, k.route, err))
						continue
					}
				}
				switch {
				case !bytes.Equal(body, ref):
					fail(b.n, fmt.Errorf("%s gen %d %s: body differs from the reference (%d vs %d bytes)", k.model, k.gen, k.route, len(body), len(ref)))
				case b.etag != etag:
					fail(b.n, fmt.Errorf("%s gen %d %s: ETag %s, reference %s", k.model, k.gen, k.route, b.etag, etag))
				}
			}
		}
		for k, m := range ob.notMod {
			_, etag, err := refFor(k)
			for sent, n := range m {
				switch {
				case err != nil:
					fail(n, err)
				case sent != etag:
					fail(n, fmt.Errorf("%s gen %d %s: 304 for ETag %s, reference %s", k.model, k.gen, k.route, sent, etag))
				}
			}
		}
	}
	return failed, first
}

func gunzip(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}
