package main

import (
	"context"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The reported quantiles must match a known distribution.
func TestQuantileKnownDistribution(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 501}, {0.9, 901}, {0.99, 991}, {1, 1001}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("uniform 1..1001: q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	// Exponential with rate 1: the q-quantile is -ln(1-q).
	rng := rand.New(rand.NewSource(1))
	exp := make([]float64, 200000)
	for i := range exp {
		exp[i] = rng.ExpFloat64()
	}
	sort.Float64s(exp)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := -math.Log(1 - q)
		if got := quantile(exp, q); math.Abs(got-want)/want > 0.03 {
			t.Errorf("exponential: q%.2f = %.4f, want %.4f ± 3%%", q, got, want)
		}
	}
	if got := interquartileMean([]float64{100, 1, 2, 3, 4, 5, 6, -100}); got != 3.5 {
		t.Errorf("interquartile mean = %v, want 3.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, not a number that reads as a measurement")
	}
}

// Windowed metrics average the middle half of the windows, so a few
// slow windows do not move them, and combine classes by geometric mean.
func TestWindowed(t *testing.T) {
	ps := &phaseStats{elapsed: 10 * time.Second}
	for w := 0; w < 10; w++ {
		d := int64(time.Millisecond)
		if w == 3 || w == 7 {
			d = int64(time.Second) // stalled windows
		}
		for i := 0; i < 100; i++ {
			ps.lat = append(ps.lat, d)
			ps.at = append(ps.at, int64(w)*int64(time.Second)+int64(i)*int64(time.Millisecond))
		}
	}
	if got := ps.windowed(0.9, time.Millisecond); got != 1 {
		t.Errorf("windowed p90 = %v ms, want 1", got)
	}
	if got := ps.rate(); got != 100 {
		t.Errorf("rate = %v/s, want 100", got)
	}
	// Two classes at 1 ms and 4 ms combine to their geometric mean.
	ps.class = make([]int, len(ps.lat))
	for i := range ps.lat {
		ps.lat[i] = int64(time.Millisecond)
		if i%2 == 1 {
			ps.class[i], ps.lat[i] = 1, int64(4*time.Millisecond)
		}
	}
	if got := ps.windowed(0.5, time.Millisecond); math.Abs(got-2) > 1e-9 {
		t.Errorf("two classes: windowed p50 = %v ms, want 2", got)
	}
}

// Self time is a span's duration minus its children's, and a nil tracer
// records nothing.
func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{Name: "catalog.set", Start: 0, End: 100, Parent: -1},
		{Name: "xmldom.parse", Start: 100, End: 130, Parent: 0},
		{Name: "server.stage", Start: 130, End: 180, Parent: 0},
		{Name: "htmlgen.publish", Start: 180, End: 200, Parent: 2},
	}
	st := summarize(mergeSpans([]*tracer{{spans: []span{{Name: "other", End: 5, Parent: -1}}}, tr}))
	if got := st.selfFrac("catalog.set"); got != 0.2 {
		t.Errorf("catalog.set self fraction = %v, want 0.2", got)
	}
	if got := st.self["server.stage"]; got != 30 {
		t.Errorf("server.stage self = %d, want 30", got)
	}
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1)
}

// testStack is the real catalog, checked against the real oracle, with
// a handler under the test's control in front of it.
func testStack(t *testing.T, wrap func(http.Handler) http.Handler) *stack {
	t.Helper()
	models, err := baseModels("..")
	if err != nil {
		t.Fatal(err)
	}
	models = models[:2]
	var targets []target
	for i := range models {
		for _, r := range []string{"site/index.html", "model.xml", "pretty", "cwm.xmi"} {
			targets = append(targets, target{model: i, route: r})
		}
	}
	s, err := newStack(context.Background(), models, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.listen(2, wrap(s.cat.Handler())); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

func runClients(s *stack, d time.Duration) (attempted, failed int64, first error) {
	seed := maphash.MakeSeed()
	cs := []*client{newClient(s, time.Now(), seed, nil, 0), newClient(s, time.Now(), seed, nil, 1<<32)}
	closedLoop(context.Background(), cs, 1, time.Now().Add(d))
	var obs []*observer
	for _, c := range cs {
		obs = append(obs, c.obs)
		attempted += int64(len(c.log))
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	n, err := s.oracle.verify(obs)
	if first == nil {
		first = err
	}
	return attempted, failed + n, first
}

// corrupt flips one byte of every n-th model.xml body.
type corrupt struct {
	http.ResponseWriter
	on bool
}

func (c *corrupt) Write(p []byte) (int, error) {
	if c.on && len(p) > 10 {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 1
		return c.ResponseWriter.Write(q)
	}
	return c.ResponseWriter.Write(p)
}

// A handler that fails on purpose must raise the error rate: wrong
// bytes and unexpected statuses are both counted, and the unmodified
// handler passes the same checks.
func TestFailingHandlerRaisesErrorRate(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		s := testStack(t, func(h http.Handler) http.Handler { return h })
		attempted, failed, err := runClients(s, 300*time.Millisecond)
		if attempted == 0 || failed != 0 {
			t.Fatalf("clean handler: %d of %d failed: %v", failed, attempted, err)
		}
	})
	t.Run("wrong-bytes", func(t *testing.T) {
		var n atomic.Int64
		s := testStack(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				on := strings.HasSuffix(r.URL.Path, "/model.xml") && r.Header.Get("Accept-Encoding") == "" && n.Add(1)%3 == 0
				h.ServeHTTP(&corrupt{ResponseWriter: w, on: on}, r)
			})
		})
		attempted, failed, err := runClients(s, 300*time.Millisecond)
		if failed == 0 || n.Load() < 3 {
			t.Fatalf("corrupted bodies went unnoticed: %d of %d failed (%d identity model.xml requests)", failed, attempted, n.Load())
		}
		if !strings.Contains(err.Error(), "differs from the reference") {
			t.Errorf("first failure = %v, want a body mismatch", err)
		}
	})
	t.Run("status", func(t *testing.T) {
		var n atomic.Int64
		s := testStack(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if n.Add(1)%5 == 0 {
					http.Error(w, "injected", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		})
		attempted, failed, _ := runClients(s, 300*time.Millisecond)
		if want := attempted / 5; failed < want-1 {
			t.Fatalf("injected 500s: %d of %d failed, want about %d", failed, attempted, want)
		}
	})
}

// Open-loop latency is timed from the due time: when the server is
// slower than the schedule, later requests wait and their latency grows
// by the wait, while their time on the wire does not.
func TestOpenLoopTimedFromDue(t *testing.T) {
	const service = 5 * time.Millisecond
	s := testStack(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(service)
			h.ServeHTTP(w, r)
		})
	})
	epoch := time.Now()
	c := newClient(s, epoch, maphash.MakeSeed(), nil, 0)
	plan := make([]planned, 40)
	for i := range plan {
		plan[i] = planned{target: int32(i % len(s.targets))}
	}
	// One worker, a request due every millisecond, each taking ≥ 5 ms.
	if unsent, err := openLoop(context.Background(), []*client{c}, plan, epoch, time.Millisecond, time.Minute); unsent != 0 || err != nil {
		t.Fatalf("%d requests unsent: %v", unsent, err)
	}
	if c.failed != 0 {
		t.Fatalf("%d failed: %v", c.failed, c.firstErr)
	}
	var ps phaseStats
	ps.clients = []*client{c}
	ps.fromLogs(true, 0)
	last := c.log[len(c.log)-1]
	if wire := time.Duration(last.end - last.start); wire > 10*service {
		t.Fatalf("last request took %v on the wire; the test needs a fast loopback", wire)
	}
	// The 40th request is due at 39 ms but cannot start before 39 × 5 ms.
	if lat := time.Duration(ps.lat[len(ps.lat)-1]); lat < 150*time.Millisecond {
		t.Errorf("last request latency %v, want ≥ 150ms (timed from its due time)", lat)
	}
	if late := time.Duration(ps.late[len(ps.late)-1]); late < 140*time.Millisecond {
		t.Errorf("last request lateness %v, want ≥ 140ms", late)
	}
	for i, r := range c.log {
		if r.due > r.start || r.start > r.end {
			t.Fatalf("request %d: due %d, start %d, end %d out of order", i, r.due, r.start, r.end)
		}
	}
}

// The same seed gives the same inputs: edits and the request plan.
func TestSeededInputsRepeat(t *testing.T) {
	models, err := baseModels("..")
	if err != nil {
		t.Fatal(err)
	}
	edit := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		src := models[0].src
		for k := 1; k <= 5; k++ {
			if src, err = editModel(src, rng, k); err != nil {
				t.Fatal(err)
			}
		}
		return string(src)
	}
	if edit(7) != edit(7) {
		t.Error("the same seed produced different edits")
	}
	if edit(7) == edit(8) {
		t.Error("different seeds produced the same edits")
	}
	if _, err := buildModel([]byte(edit(7))); err != nil {
		t.Errorf("edited model no longer builds: %v", err)
	}
}
