package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"goldweb/internal/artifact"
	"goldweb/internal/core"
)

// revalidatedReport is the /validate body as the handler rendered it
// when every request re-validated an editable copy of the snapshot.
func revalidatedReport(snap *snapshot) string {
	var b strings.Builder
	schemaErrs := core.ValidateDocument(snap.doc.Editable())
	semErrs := snap.model.Validate()
	if len(schemaErrs) == 0 && len(semErrs) == 0 {
		fmt.Fprintf(&b, "VALID: %s conforms to the XML Schema and the metamodel constraints\n", snap.model.Name)
		return b.String()
	}
	var lines []string
	for _, e := range schemaErrs {
		lines = append(lines, "schema: "+e.Error())
	}
	for _, e := range semErrs {
		lines = append(lines, "model: "+e.Error())
	}
	sort.Strings(lines)
	fmt.Fprintf(&b, "INVALID: %d problems\n", len(lines))
	for _, l := range lines {
		fmt.Fprintln(&b, l)
	}
	return b.String()
}

// TestValidateReportFromSwapVerdict pins the /validate body, now built
// once per snapshot from the swap-time verdict, to the report of a fresh
// re-validation, for a valid model and for invalid models installed with
// SetModel (schema and metamodel problems both), and checks the report
// is served as a conditional-GET artifact.
func TestValidateReportFromSwapVerdict(t *testing.T) {
	ghost := core.SampleSales()
	ghost.Facts[0].SharedAggs[0].DimClass = "ghost"
	dup := core.SampleSales()
	dup.Dims[1].ID = dup.Dims[0].ID
	models := map[string]*core.Model{"valid": core.SampleSales(), "dangling dimclass": ghost, "duplicate id": dup}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			srv := NewEmpty()
			srv.SetModel(m)
			h := srv.AppHandler()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/validate", nil))
			want := revalidatedReport(srv.snapshot())
			if got := rec.Body.String(); got != want {
				t.Fatalf("report differs from a fresh re-validation\ngot:\n%swant:\n%s", got, want)
			}
			if (name == "valid") != strings.HasPrefix(want, "VALID:") {
				t.Fatalf("unexpected verdict: %.200s", want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
				t.Errorf("Content-Type %q", ct)
			}
			etag := rec.Header().Get("ETag")
			req := httptest.NewRequest(http.MethodGet, "/validate", nil)
			req.Header.Set("If-None-Match", etag)
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
				t.Fatalf("revalidation: status %d with %d body bytes, want a bodyless 304", rec.Code, rec.Body.Len())
			}
		})
	}
}

// TestValidateWarm304Allocations: a revalidated /validate request serves
// the snapshot's report artifact without allocating.
func TestValidateWarm304Allocations(t *testing.T) {
	srv := New(core.SampleSales())
	h := srv.AppHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/validate", nil))
	req := httptest.NewRequest(http.MethodGet, "/validate", nil)
	req.Header.Set("If-None-Match", rec.Header().Get("ETag"))
	w := &discardResponse{h: make(http.Header)}
	if allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	}); allocs > 0 {
		t.Errorf("warm 304 on /validate: %.1f allocs/op, want 0", allocs)
	}
}

// TestValidateReportInterningFollowsSnapshot: the report a live snapshot
// builds is interned; one first requested after its snapshot was
// replaced takes no interning reference, which nothing would return.
func TestValidateReportInterningFollowsSnapshot(t *testing.T) {
	store := artifact.NewStore()
	srv := NewEmpty(WithArtifactStore(store))
	srv.SetModel(core.SampleSales())
	live := srv.snapshot()
	if a := live.validationReport(store); store.Intern(a.ContentType(), a.Bytes()) != a {
		t.Fatal("live snapshot's report is not interned")
	} else {
		a.Release() // the reference Intern just took
	}
	ghost := core.SampleSales()
	ghost.Facts[0].SharedAggs[0].DimClass = "ghost"
	srv.SetModel(ghost)
	stale := srv.snapshot()
	srv.SetModel(core.SampleSales())
	n := store.Len()
	stale.validationReport(store)
	if store.Len() != n {
		t.Fatalf("report of a replaced snapshot was interned: store %d -> %d artifacts", n, store.Len())
	}
}

// TestValidateReportConcurrentWithSwaps races first /validate requests
// against the swaps that release their snapshots (run under -race).
func TestValidateReportConcurrentWithSwaps(t *testing.T) {
	srv := New(core.SampleSales())
	h := srv.AppHandler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/validate", nil))
				if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "VALID:") {
					t.Errorf("status %d body %.80q", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		srv.SetModel(core.SampleSales())
	}
	close(stop)
	wg.Wait()
}
