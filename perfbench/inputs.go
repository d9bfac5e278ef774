package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"goldweb/internal/htmlgen"
	"goldweb/internal/workload"
)

// modelSrc is one catalog model: its name and current source.
type modelSrc struct {
	name string
	src  []byte
}

// exampleModels are the committed example documents, smallest first.
var exampleModels = []string{"quickstart", "hospital", "interchange", "salesdw", "webportal"}

// generatedSpecs extend the catalog to the synthetic sizes the older
// BENCH files use (f2d4h2 swap, f4d8h2 validate/publish, f8d16h3).
var generatedSpecs = []workload.ModelSpec{
	{Facts: 2, Dims: 4, Depth: 2},
	{Facts: 4, Dims: 8, Depth: 2},
	{Facts: 8, Dims: 16, Depth: 3},
}

// swapModel is the one model browse-during-swaps edits.
const swapModel = "f4d8h2"

// baseModels returns the 8-model catalog: examples/models/*.xml read
// from the checkout, then the generated models.
func baseModels(root string) ([]modelSrc, error) {
	var out []modelSrc
	for _, name := range exampleModels {
		src, err := os.ReadFile(filepath.Join(root, "examples", "models", name+".xml"))
		if err != nil {
			return nil, fmt.Errorf("read example model: %w", err)
		}
		out = append(out, modelSrc{name: name, src: src})
	}
	for _, spec := range generatedSpecs {
		out = append(out, modelSrc{name: spec.String(), src: []byte(workload.GenModel(spec).XMLString())})
	}
	return out, nil
}

var descAttr = regexp.MustCompile(`description="[^"]*"`)

// editModel applies one small seeded edit: it rewrites the text of one
// description attribute, so the document stays valid and every page
// that does not show that description keeps its bytes.
func editModel(src []byte, rng *rand.Rand, rev int) ([]byte, error) {
	locs := descAttr.FindAllIndex(src, -1)
	if len(locs) == 0 {
		return nil, fmt.Errorf("model has no description attribute to edit")
	}
	loc := locs[rng.Intn(len(locs))]
	repl := fmt.Sprintf(`description="revision %d %08x"`, rev, rng.Uint32())
	out := make([]byte, 0, len(src)+len(repl))
	out = append(out, src[:loc[0]]...)
	out = append(out, repl...)
	return append(out, src[loc[1]:]...), nil
}

// target is one URL the load generator requests: the model it belongs
// to (an index into the catalog) and its route below /m/{model}/.
type target struct {
	model int
	route string
}

func (t target) path(models []modelSrc) string {
	return "/m/" + models[t.model].name + "/" + t.route
}

// modelRoutes lists a model's routes. The warm browser mix requests
// every multi-page site page plus the XML views; focused adds the
// /single and ?focus= views for every fact, which are published on
// first request.
func modelRoutes(site *htmlgen.Site, facts []string, focused bool) []string {
	var routes []string
	for _, p := range site.HTMLPages() {
		routes = append(routes, "site/"+p)
	}
	routes = append(routes, "model.xml", "pretty", "cwm.xmi")
	if focused {
		routes = append(routes, "single")
		for _, f := range facts {
			routes = append(routes, "single?focus="+f, "site/"+htmlgen.IndexName+"?focus="+f)
		}
	}
	return routes
}

// sortedFacts returns the model's valid focus ids in order.
func sortedFacts(set map[string]bool) []string {
	var out []string
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// splitRoute separates a route into its path part and focus value.
func splitRoute(route string) (path, focus string) {
	path, q, _ := strings.Cut(route, "?")
	return path, strings.TrimPrefix(q, "focus=")
}

// lintFile is one lint-corpus input and the findings it must produce.
type lintFile struct {
	name    string
	src     []byte
	model   bool // LintModelSource instead of LintStylesheet
	library bool // lint against examples/library/library.xsd
	want    string
}

// loadLintCorpus reads the lint corpus from the checkout: the analysis
// golden stylesheets and models with their .want files, the library
// example, and the committed example models (which must lint clean).
// The built-in stylesheets are added by the caller from core.
func loadLintCorpus(root string) ([]lintFile, error) {
	var out []lintFile
	golden := func(dir, ext string, model bool) error {
		files, err := filepath.Glob(filepath.Join(root, "internal", "analysis", "testdata", dir, "*"+ext))
		if err != nil || len(files) == 0 {
			return fmt.Errorf("lint corpus %s: no %s files (%v)", dir, ext, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			want, err := os.ReadFile(strings.TrimSuffix(f, ext) + ".want")
			if err != nil {
				return err
			}
			out = append(out, lintFile{name: filepath.Base(f), src: src, model: model, want: string(want)})
		}
		return nil
	}
	if err := golden("stylesheets", ".xsl", false); err != nil {
		return nil, err
	}
	if err := golden("models", ".xml", true); err != nil {
		return nil, err
	}
	lib := filepath.Join(root, "examples", "library")
	for _, f := range []struct {
		name  string
		model bool
	}{{"library.xsl", false}, {"library.xml", true}} {
		src, err := os.ReadFile(filepath.Join(lib, f.name))
		if err != nil {
			return nil, err
		}
		out = append(out, lintFile{name: f.name, src: src, model: f.model, library: true})
	}
	for _, name := range exampleModels {
		src, err := os.ReadFile(filepath.Join(root, "examples", "models", name+".xml"))
		if err != nil {
			return nil, err
		}
		out = append(out, lintFile{name: name + ".xml", src: src, model: true})
	}
	return out, nil
}
