package xsd

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"goldweb/internal/xmldom"
)

// mapMatcher is the reference content matcher: the same Thompson-style
// position-set reachability as contentMatcher, over map[int]bool sets
// and node-keyed assignment maps. Positions are visited in ascending
// order so its assignments are deterministic and comparable.
type mapMatcher struct {
	schema *Schema
	kids   []*xmldom.Node
	assign map[*xmldom.Node]*ElementDecl
	wild   map[*xmldom.Node]*Wildcard
	maxPos int
}

func sortedPos(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func (m *mapMatcher) matchDecl(p *Particle, k *xmldom.Node) *ElementDecl {
	if k.URI != "" {
		return nil
	}
	if k.Name == p.Elem.Name {
		return p.Elem
	}
	if p.Ref != "" && m.schema != nil {
		for _, mem := range m.schema.substMembers[p.Ref] {
			if !mem.Abstract && k.Name == mem.Name {
				return mem
			}
		}
	}
	return nil
}

func (m *mapMatcher) reach(p *Particle, starts map[int]bool) map[int]bool {
	out := map[int]bool{}
	if len(starts) == 0 {
		return out
	}
	cur := starts
	count := 0
	for {
		if count >= p.Min {
			for pos := range cur {
				out[pos] = true
			}
		}
		if p.Max != Unbounded && count >= p.Max {
			break
		}
		next := m.reachOnce(p, cur)
		if len(next) == 0 || mapSubset(next, out) && count >= p.Min {
			for pos := range next {
				out[pos] = true
			}
			break
		}
		cur = next
		count++
		if count > len(m.kids)+1 {
			for pos := range cur {
				out[pos] = true
			}
			break
		}
	}
	return out
}

func mapSubset(a, b map[int]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (m *mapMatcher) reachOnce(p *Particle, starts map[int]bool) map[int]bool {
	switch p.Kind {
	case PElement:
		out := map[int]bool{}
		for _, pos := range sortedPos(starts) {
			if pos >= len(m.kids) {
				continue
			}
			if d := m.matchDecl(p, m.kids[pos]); d != nil {
				m.assign[m.kids[pos]] = d
				out[pos+1] = true
				if pos+1 > m.maxPos {
					m.maxPos = pos + 1
				}
			}
		}
		return out
	case PAny:
		out := map[int]bool{}
		for _, pos := range sortedPos(starts) {
			if pos < len(m.kids) && p.Wildcard.Admits(m.kids[pos].URI) {
				if m.assign[m.kids[pos]] == nil {
					m.wild[m.kids[pos]] = p.Wildcard
				}
				out[pos+1] = true
				if pos+1 > m.maxPos {
					m.maxPos = pos + 1
				}
			}
		}
		return out
	case PSequence:
		cur := starts
		for _, c := range p.Children {
			cur = m.reach(c, cur)
			if len(cur) == 0 {
				return cur
			}
		}
		return cur
	case PChoice:
		out := map[int]bool{}
		for _, c := range p.Children {
			for pos := range m.reach(c, starts) {
				out[pos] = true
			}
		}
		return out
	case PAll:
		out := map[int]bool{}
		for _, pos := range sortedPos(starts) {
			if end, ok := m.matchAll(p, pos); ok {
				out[end] = true
			}
		}
		return out
	}
	return nil
}

func (m *mapMatcher) matchAll(p *Particle, pos int) (int, bool) {
	used := make(map[*Particle]bool, len(p.Children))
	for pos < len(m.kids) {
		matched := false
		for _, c := range p.Children {
			if c.Kind != PElement || used[c] {
				continue
			}
			if d := m.matchDecl(c, m.kids[pos]); d != nil {
				m.assign[m.kids[pos]] = d
				used[c] = true
				pos++
				if pos > m.maxPos {
					m.maxPos = pos
				}
				matched = true
				break
			}
		}
		if !matched {
			break
		}
	}
	for _, c := range p.Children {
		if c.Min > 0 && !used[c] {
			return 0, false
		}
	}
	return pos, true
}

// fuzzSource hands out fuzz bytes as small choices; exhausted input
// reads as zeros so every byte string builds a case.
type fuzzSource struct {
	data []byte
	i    int
}

func (s *fuzzSource) pick(n int) int {
	if s.i >= len(s.data) {
		return 0
	}
	b := s.data[s.i]
	s.i++
	return int(b) % n
}

// matcherCase is one generated content model and child sequence.
type matcherCase struct {
	schema  *Schema
	content *Particle
	kids    []*xmldom.Node
}

var (
	fuzzNames = []string{"a", "b", "c", "h", "m1", "m2"}
	fuzzURIs  = []string{"", "", "", "urn:x"}
	fuzzNS    = []string{"##any", "##other", "##local", "urn:x"}
	// Child counts straddle the 64-bit word boundaries of position sets.
	fuzzCounts = []int{0, 1, 2, 3, 4, 5, 7, 63, 64, 65, 127, 128, 129, 130}
)

func buildMatcherCase(data []byte) matcherCase {
	src := &fuzzSource{data: data}
	decls := map[string]*ElementDecl{}
	for _, n := range fuzzNames {
		decls[n] = &ElementDecl{Name: n}
	}
	decls["h"].Abstract = src.pick(2) == 0
	decls["m2"].Abstract = src.pick(4) == 0
	schema := &Schema{substMembers: map[string][]*ElementDecl{"h": {decls["m1"], decls["m2"]}}}

	bounds := func(p *Particle) *Particle {
		p.Min = src.pick(3)
		switch src.pick(5) {
		case 0:
			p.Max = Unbounded
		case 1:
			p.Max = 0
		default:
			p.Max = 1 + src.pick(3)
		}
		return p
	}
	var particle func(depth int) *Particle
	element := func() *Particle {
		if src.pick(4) == 0 {
			return bounds(&Particle{Kind: PElement, Elem: decls["h"], Ref: "h"})
		}
		return bounds(&Particle{Kind: PElement, Elem: decls[fuzzNames[src.pick(len(fuzzNames))]]})
	}
	particle = func(depth int) *Particle {
		kind := src.pick(6)
		if depth >= 3 {
			kind = 3 + src.pick(3)
		}
		switch kind {
		case 0, 1:
			p := bounds(&Particle{Kind: PSequence})
			if kind == 1 {
				p.Kind = PChoice
			}
			for n := 1 + src.pick(3); n > 0; n-- {
				p.Children = append(p.Children, particle(depth+1))
			}
			return p
		case 2:
			p := bounds(&Particle{Kind: PAll})
			for n := 1 + src.pick(4); n > 0; n-- {
				p.Children = append(p.Children, element())
			}
			return p
		case 3:
			return bounds(&Particle{Kind: PAny, Wildcard: &Wildcard{NS: fuzzNS[src.pick(len(fuzzNS))], Process: "lax"}})
		default:
			return element()
		}
	}
	c := matcherCase{schema: schema, content: particle(0)}
	// Children come in runs of one name, so repeated particles can
	// match long stretches across word boundaries.
	n := fuzzCounts[src.pick(len(fuzzCounts))]
	for len(c.kids) < n {
		name, uri := fuzzNames[src.pick(len(fuzzNames))], fuzzURIs[src.pick(len(fuzzURIs))]
		for run := 1 + src.pick(40); run > 0 && len(c.kids) < n; run-- {
			c.kids = append(c.kids, &xmldom.Node{Type: xmldom.ElementNode, Name: name, URI: uri})
		}
	}
	return c
}

// checkMatcherAgainstOracle runs both matchers on one case and reports
// any difference in verdict, per-child assignment or culprit position.
func checkMatcherAgainstOracle(t *testing.T, data []byte) {
	c := buildMatcherCase(data)
	ref := &mapMatcher{schema: c.schema, kids: c.kids,
		assign: map[*xmldom.Node]*ElementDecl{}, wild: map[*xmldom.Node]*Wildcard{}}
	want := ref.reach(c.content, map[int]bool{0: true})[len(c.kids)]

	var m contentMatcher
	slots := make([]childSlot, len(c.kids))
	for i, k := range c.kids {
		slots[i].node = k
	}
	got := m.match(c.schema, c.content, slots)

	label := particleLabel(c.content)
	if got != want {
		t.Fatalf("model %s over %d children: bitset matcher accepts=%v, oracle %v", label, len(c.kids), got, want)
	}
	if m.maxPos != ref.maxPos {
		t.Fatalf("model %s over %d children: maxPos %d, oracle %d", label, len(c.kids), m.maxPos, ref.maxPos)
	}
	for i, k := range c.kids {
		if slots[i].decl != ref.assign[k] || slots[i].wild != ref.wild[k] {
			t.Fatalf("model %s, child %d <%s>: assigned (%v, %v), oracle (%v, %v)",
				label, i, k.Name, slots[i].decl, slots[i].wild, ref.assign[k], ref.wild[k])
		}
	}
}

// FuzzContentMatcher pins the bitset content matcher to the map-based
// oracle over random particle trees (sequence/choice/all, occurrence
// bounds including unbounded and zero, nesting, xs:any, substitution-
// group refs) and child sequences crossing position-set word boundaries.
func FuzzContentMatcher(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 1, 2, 4, 4, 0, 5, 1, 7},
		{1, 1, 2, 3, 3, 3, 0, 2, 4, 4, 1, 8},
		{0, 0, 0, 2, 0, 0, 4, 0, 1, 2, 3, 10, 0, 1},
		{2, 2, 1, 0, 4, 4, 4, 4, 0, 0, 0, 12},
		{0, 1, 0, 1, 0, 1, 3, 0, 0, 0, 0, 0, 0, 13},
	} {
		f.Add(seed)
	}
	f.Fuzz(checkMatcherAgainstOracle)
}

// TestContentMatcherMatchesOracle runs the fuzz property over a fixed
// pseudo-random corpus, so every plain test run covers it.
func TestContentMatcherMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 96)
	for i := 0; i < 3000; i++ {
		rng.Read(data)
		checkMatcherAgainstOracle(t, data)
	}
}

// TestContentMatcherFlatListIsLinear: a long flat child list under a
// repeated particle is matched one position per step; position sets
// are windowed, so each step costs the width of a few words rather than
// the whole list (full-width sets would take over a minute here).
func TestContentMatcherFlatListIsLinear(t *testing.T) {
	x := &ElementDecl{Name: "x"}
	content := &Particle{Kind: PSequence, Min: 1, Max: 1, Children: []*Particle{
		{Kind: PElement, Elem: x, Min: 0, Max: Unbounded},
	}}
	node := &xmldom.Node{Type: xmldom.ElementNode, Name: "x"}
	slots := make([]childSlot, 1<<20)
	for i := range slots {
		slots[i].node = node
	}
	var m contentMatcher
	start := time.Now()
	if !m.match(&Schema{}, content, slots) {
		t.Fatal("x* rejected a list of x")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("matching %d children took %v", len(slots), d)
	}
}
