package xsd

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xpath"
)

// ValidateOptions tune instance validation.
type ValidateOptions struct {
	// ApplyDefaults writes schema-supplied attribute defaults into the
	// instance (the infoset contribution a validating parser makes).
	// Because it mutates the document it must not be used on a frozen
	// (xmldom.Freeze) tree — validate an Editable() copy instead.
	ApplyDefaults bool
	// MaxErrors stops validation after this many violations (0 = all).
	MaxErrors int
	// SkipIdentityConstraints disables key/keyref/unique checking, leaving
	// only DTD-style ID/IDREF integrity — the ablation of the paper's §3.1
	// claim that keyrefs improve on their earlier DTD proposal. With it
	// unset, identity violations carry ValidationError.Identity, which is
	// what the model linter renders as GW402.
	SkipIdentityConstraints bool
}

// Validate checks an instance document against the schema and returns all
// violations found (nil means the document is valid).
func (s *Schema) Validate(doc *xmldom.Node, opts ValidateOptions) []ValidationError {
	v := &validator{schema: s, opts: opts,
		ids: map[string]*xmldom.Node{}}
	root := doc.DocumentElement()
	if root == nil {
		v.errf(doc, "document has no root element")
		return v.errs
	}
	decl, ok := s.Elements[root.Name]
	if !ok {
		v.errf(root, "no global declaration for root element %s", root.FullName())
		return v.errs
	}
	v.validateElement(root, decl)
	v.checkIDRefs()
	return v.errs
}

// ValidateString parses and validates an instance from XML text; parse
// errors are reported as a single ValidationError.
func (s *Schema) ValidateString(src string, opts ValidateOptions) []ValidationError {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return []ValidationError{{Path: "/", Msg: err.Error()}}
	}
	return s.Validate(doc, opts)
}

type idref struct {
	node  *xmldom.Node
	value string
}

type validator struct {
	schema *Schema
	opts   ValidateOptions
	errs   []ValidationError
	ids    map[string]*xmldom.Node
	idrefs []idref
	full   bool // MaxErrors reached
	// parts and tuples are scratch for identity-constraint field tuples,
	// reused across every selected node of every constraint.
	parts  []string
	tuples []string
	// slots is the stack of element children under content matching;
	// matcher's slab is reused by every element of the validation.
	slots   []childSlot
	matcher contentMatcher
}

func (v *validator) errf(n *xmldom.Node, format string, args ...interface{}) {
	v.report(n, nil, format, args...)
}

// report records a violation at node n (iv is its structured form for
// identity-constraint violations) until MaxErrors is reached.
func (v *validator) report(n *xmldom.Node, iv *IdentityViolation, format string, args ...interface{}) {
	if v.full {
		return
	}
	e := ValidationError{Msg: fmt.Sprintf(format, args...), Identity: iv}
	if n != nil {
		e.Path = n.Path()
		e.Line = n.Line
		e.ord = n.DocOrder()
	}
	v.errs = append(v.errs, e)
	if v.opts.MaxErrors > 0 && len(v.errs) >= v.opts.MaxErrors {
		v.full = true
	}
}

func (v *validator) validateElement(elem *xmldom.Node, decl *ElementDecl) {
	if v.full {
		return
	}
	if decl.Abstract {
		v.errf(elem, "element %s is declared abstract and cannot appear in instances", elem.FullName())
		return
	}
	switch {
	case decl.Simple != nil:
		v.validateSimpleElement(elem, decl)
	case decl.Complex != nil:
		v.validateComplexElement(elem, decl.Complex)
	}
	if !v.opts.SkipIdentityConstraints && len(decl.Constraints) > 0 {
		start := len(v.errs)
		v.checkIdentity(elem, decl)
		// On frozen documents, report this element's identity-constraint
		// violations in document order of the offending nodes rather than
		// constraint-declaration order; the sort is stable so unfrozen
		// documents (ord 0 everywhere) keep the original order. With zero
		// or one new errors — the overwhelmingly common valid-document case
		// — there is nothing to reorder.
		if len(v.errs)-start > 1 {
			sort.SliceStable(v.errs[start:], func(i, j int) bool {
				return v.errs[start+i].ord < v.errs[start+j].ord
			})
		}
	}
}

func (v *validator) validateSimpleElement(elem *xmldom.Node, decl *ElementDecl) {
	for _, c := range elem.Children {
		if c.Type == xmldom.ElementNode {
			v.errf(c, "element %s has simple type %s and cannot contain child elements",
				elem.FullName(), typeLabel(decl.Simple))
			return
		}
	}
	if len(elem.Attr) > 0 {
		v.errf(elem.Attr[0], "element %s with simple content cannot carry attributes", elem.FullName())
	}
	val := elem.StringValue()
	if decl.HasFixed && decl.Simple.normalize(val) != decl.Simple.normalize(decl.Fixed) {
		v.errf(elem, "element %s must have the fixed value %q", elem.FullName(), decl.Fixed)
		return
	}
	if err := checkSimpleValue(decl.Simple, val); err != nil {
		v.errf(elem, "element %s: %v", elem.FullName(), err)
	}
	v.trackIDs(elem, decl.Simple, val)
}

func (v *validator) validateComplexElement(elem *xmldom.Node, ct *ComplexType) {
	v.validateAttributes(elem, ct)

	// Character content.
	if !ct.Mixed {
		for _, c := range elem.Children {
			if c.Type == xmldom.TextNode && strings.TrimSpace(c.Data) != "" {
				v.errf(c, "element %s does not allow character content (%q)",
					elem.FullName(), strings.TrimSpace(c.Data))
				break
			}
		}
	}

	// The element children live on the validator's slot stack for the
	// duration of this element: matching fills in their assignments,
	// then each child is validated (which pushes its own children above).
	base := len(v.slots)
	for _, c := range elem.Children {
		if c.Type == xmldom.ElementNode {
			v.slots = append(v.slots, childSlot{node: c})
		}
	}
	n := len(v.slots) - base
	if ct.Content == nil {
		if n > 0 {
			k := v.slots[base].node
			v.errf(k, "element %s must be empty but contains <%s>", elem.FullName(), k.FullName())
		}
		v.slots = v.slots[:base]
		return
	}
	m := &v.matcher
	valid := m.match(v.schema, ct.Content, v.slots[base:base+n:base+n])
	if !valid {
		if culprit := m.maxPos; culprit < n {
			k := v.slots[base+culprit].node
			v.errf(k, "element <%s> is not allowed here in %s (content model %s)",
				k.FullName(), elem.FullName(), particleLabel(ct.Content))
		} else {
			v.errf(elem, "element %s is missing required content (model %s)",
				elem.FullName(), particleLabel(ct.Content))
		}
		// Continue into children best-effort so nested errors surface;
		// children the model did not match are skipped silently.
	}
	for i := 0; i < n; i++ {
		// Index afresh: validating a child grows (and may move) the stack.
		s := v.slots[base+i]
		if s.decl != nil {
			v.validateElement(s.node, s.decl)
		} else if s.wild != nil {
			v.validateWildcard(s.node, s.wild)
		}
	}
	v.slots = v.slots[:base]
}

// validateWildcard applies the processContents mode to an element matched
// by an xs:any particle: skip validates nothing, lax validates against a
// global declaration when one exists, strict requires one.
func (v *validator) validateWildcard(elem *xmldom.Node, w *Wildcard) {
	if w.Process == "skip" {
		return
	}
	var decl *ElementDecl
	if elem.URI == "" {
		decl = v.schema.Elements[elem.Name]
	}
	if decl == nil {
		if w.Process == "strict" {
			v.errf(elem, "wildcard with processContents strict requires a global declaration for <%s>", elem.FullName())
		}
		return
	}
	v.validateElement(elem, decl)
}

// childSlot is one element child under content-model matching, with the
// declaration or wildcard the matcher assigned it (both nil when no
// particle matched it).
type childSlot struct {
	node *xmldom.Node
	decl *ElementDecl
	wild *Wildcard
}

// posSet is a set of child positions 0..n, one bit per position, kept
// as a word window: s[0] and s[1] bound the words [lo, hi) that may hold
// set bits, and position p lives in word s[2+p>>6]. Words outside the
// window are stale and never read, so allocating or clearing a set costs
// nothing, and every operation costs the width of its operands' windows:
// a long flat child list matched one position at a time stays linear.
type posSet []uint64

func (s posSet) bounds() (lo, hi int) { return int(s[0]), int(s[1]) }

func (s posSet) reset() { s[0], s[1] = 0, 0 }

// cover widens the window to include words [lo, hi), zeroing the words
// it adds.
func (s posSet) cover(lo, hi int) {
	slo, shi := s.bounds()
	if slo >= shi {
		slo, shi = lo, lo
	}
	if lo < slo {
		clear(s[2+lo : 2+slo])
		slo = lo
	}
	if hi > shi {
		clear(s[2+shi : 2+hi])
		shi = hi
	}
	s[0], s[1] = uint64(slo), uint64(shi)
}

func (s posSet) add(p int) {
	s.cover(p>>6, p>>6+1)
	s[2+p>>6] |= 1 << (p & 63)
}

func (s posSet) has(p int) bool {
	lo, hi := s.bounds()
	return p>>6 >= lo && p>>6 < hi && s[2+p>>6]&(1<<(p&63)) != 0
}

func (s posSet) or(t posSet) {
	lo, hi := t.bounds()
	if lo >= hi {
		return
	}
	s.cover(lo, hi)
	for k := lo; k < hi; k++ {
		s[2+k] |= t[2+k]
	}
}

func (s posSet) empty() bool {
	lo, hi := s.bounds()
	for k := lo; k < hi; k++ {
		if s[2+k] != 0 {
			return false
		}
	}
	return true
}

func (s posSet) subsetOf(t posSet) bool {
	lo, hi := s.bounds()
	tlo, thi := t.bounds()
	for k := lo; k < hi; k++ {
		if w := s[2+k]; w != 0 && (k < tlo || k >= thi || w&^t[2+k] != 0) {
			return false
		}
	}
	return true
}

// contentMatcher matches element children against a particle using
// position-set (Thompson-style) reachability, which is polynomial and
// handles nested occurrence bounds without backtracking blowups. Position
// sets are carved from one slab with stack discipline: every reach
// releases what it allocated, so the slab stays proportional to the
// content model's size, and one slab serves a whole validation.
type contentMatcher struct {
	schema *Schema
	kids   []childSlot
	maxPos int

	slab []uint64
	top  int
}

// match reports whether kids match content, recording each child's
// declaration or wildcard in its slot and the furthest position any
// particle consumed up to in maxPos (the error culprit).
func (m *contentMatcher) match(schema *Schema, content *Particle, kids []childSlot) bool {
	m.schema, m.kids, m.maxPos = schema, kids, 0
	m.top = 0
	start, end := m.alloc(), m.alloc()
	start.add(0)
	m.reach(content, start, end)
	return end.has(len(kids))
}

// alloc returns an empty position set from the slab.
func (m *contentMatcher) alloc() posSet {
	size := len(m.kids)>>6 + 3 // window bounds, then positions 0..len(kids)
	end := m.top + size
	if end > len(m.slab) {
		// Sets already handed out keep the old backing array; only space
		// from top up is ever handed out of the new one.
		m.slab = make([]uint64, max(2*len(m.slab), end+8*size))
	}
	s := posSet(m.slab[m.top:end:end])
	s.reset()
	m.top = end
	return s
}

// matchDecl returns the declaration an element particle assigns to child
// k: the particle's own declaration on a name match, or a substitution-
// group member for ref particles (heads dispatch only when referenced,
// per the XML Schema rules; abstract members never match by name here —
// the abstract error surfaces during element validation instead).
func (m *contentMatcher) matchDecl(p *Particle, k *xmldom.Node) *ElementDecl {
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

// reach adds to out the positions reachable after matching p starting
// from every position in starts, which is never empty (out must not
// alias starts).
func (m *contentMatcher) reach(p *Particle, starts, out posSet) {
	// The fixpoint test needs this particle's own reach set, not out,
	// which may already hold positions from sibling choice branches.
	mark := m.top
	acc, cur, next := m.alloc(), m.alloc(), m.alloc()
	cur.or(starts)
	count := 0
	for {
		if count >= p.Min {
			acc.or(cur)
		}
		if p.Max != Unbounded && count >= p.Max {
			break
		}
		next.reset()
		m.reachOnce(p, cur, next)
		// Detect fixpoint (also guards min>0 groups that can match empty).
		if next.empty() || next.subsetOf(acc) && count >= p.Min {
			acc.or(next)
			break
		}
		cur, next = next, cur
		count++
		if count > len(m.kids)+1 {
			// A group matched without consuming input; accept and stop.
			acc.or(cur)
			break
		}
	}
	out.or(acc)
	m.top = mark
}

// reachOnce adds to out the positions reachable by matching exactly one
// occurrence of the particle body from starts.
func (m *contentMatcher) reachOnce(p *Particle, starts, out posSet) {
	switch p.Kind {
	case PSequence:
		mark, cur := m.top, starts
		for _, c := range p.Children {
			nxt := m.alloc()
			m.reach(c, cur, nxt)
			if cur = nxt; cur.empty() {
				break
			}
		}
		out.or(cur)
		m.top = mark
	case PChoice:
		for _, c := range p.Children {
			m.reach(c, starts, out)
		}
	default:
		lo, hi := starts.bounds()
		for k := lo; k < hi; k++ {
			for w := starts[2+k]; w != 0; w &= w - 1 {
				if end, ok := m.advance(p, k<<6|bits.TrailingZeros64(w)); ok {
					out.add(end)
				}
			}
		}
	}
}

// advance matches one occurrence of an element, wildcard or all
// particle at child position pos, returning the position after it.
func (m *contentMatcher) advance(p *Particle, pos int) (int, bool) {
	if p.Kind == PAll {
		return m.matchAll(p, pos)
	}
	if pos >= len(m.kids) {
		return 0, false
	}
	k := &m.kids[pos]
	switch {
	case p.Kind == PElement:
		d := m.matchDecl(p, k.node)
		if d == nil {
			return 0, false
		}
		k.decl = d
	case p.Wildcard.Admits(k.node.URI):
		if k.decl == nil {
			k.wild = p.Wildcard
		}
	default:
		return 0, false
	}
	m.maxPos = max(m.maxPos, pos+1)
	return pos + 1, true
}

// matchAll matches an xsd:all group starting at pos: every child element
// particle at most per its bounds, in any order, greedily consuming
// children that match any unused particle.
func (m *contentMatcher) matchAll(p *Particle, pos int) (int, bool) {
	used := make([]bool, len(p.Children))
	for pos < len(m.kids) {
		matched := false
		for i, c := range p.Children {
			if c.Kind != PElement || used[i] {
				continue
			}
			if d := m.matchDecl(c, m.kids[pos].node); d != nil {
				m.kids[pos].decl = d
				used[i] = true
				pos++
				m.maxPos = max(m.maxPos, pos)
				matched = true
				break
			}
		}
		if !matched {
			break
		}
	}
	for i, c := range p.Children {
		if c.Min > 0 && !used[i] {
			return 0, false
		}
	}
	return pos, true
}

func (v *validator) validateAttributes(elem *xmldom.Node, ct *ComplexType) {
	for _, a := range elem.Attr {
		if a.URI == xmldom.XMLNSNamespace || a.URI == xmldom.XMLNamespace {
			continue // namespace declarations and xml: attributes pass
		}
		var ad *AttributeDecl
		if a.URI == "" {
			for _, d := range ct.Attributes {
				if d.Name == a.Name {
					ad = d // the last declaration of a name wins
				}
			}
		}
		if ad == nil {
			// An anyAttribute wildcard admits undeclared attributes in
			// matching namespaces; strict still demands a declaration,
			// which this schema subset has no global form of.
			if ct.AnyAttr != nil && ct.AnyAttr.Admits(a.URI) && ct.AnyAttr.Process != "strict" {
				continue
			}
			if a.URI != "" {
				v.errf(a, "namespaced attribute %s is not declared", a.FullName())
			} else {
				v.errf(a, "attribute %s is not declared on element %s", a.Name, elem.FullName())
			}
			continue
		}
		if ad.Use == "prohibited" {
			v.errf(a, "attribute %s is prohibited on element %s", a.Name, elem.FullName())
			continue
		}
		if ad.HasFixed && ad.Type.normalize(a.Data) != ad.Type.normalize(ad.Fixed) {
			v.errf(a, "attribute %s must have the fixed value %q", a.Name, ad.Fixed)
			continue
		}
		if err := checkSimpleValue(ad.Type, a.Data); err != nil {
			v.errf(a, "attribute %s: %v", a.Name, err)
			continue
		}
		v.trackIDs(a, ad.Type, a.Data)
	}
	for _, ad := range ct.Attributes {
		if elem.GetAttr(ad.Name) != nil {
			continue
		}
		if ad.Use == "required" {
			v.errf(elem, "element %s is missing required attribute %s", elem.FullName(), ad.Name)
			continue
		}
		if ad.HasDefault && v.opts.ApplyDefaults {
			elem.SetAttr(ad.Name, ad.Default)
		}
		if ad.HasFixed && v.opts.ApplyDefaults {
			elem.SetAttr(ad.Name, ad.Fixed)
		}
	}
}

// trackIDs records ID definitions and IDREF uses for the document-wide
// integrity check.
func (v *validator) trackIDs(n *xmldom.Node, st *SimpleType, val string) {
	switch st.rootKind() {
	case btID:
		id := st.normalize(val)
		if prev, dup := v.ids[id]; dup {
			v.errf(n, "duplicate ID %q (first defined at %s)", id, prev.Path())
		} else {
			v.ids[id] = n
		}
	case btIDREF:
		v.idrefs = append(v.idrefs, idref{node: n, value: st.normalize(val)})
	case btIDREFS:
		for _, tok := range strings.Fields(val) {
			v.idrefs = append(v.idrefs, idref{node: n, value: tok})
		}
	}
}

func (v *validator) checkIDRefs() {
	for _, r := range v.idrefs {
		if _, ok := v.ids[r.value]; !ok {
			v.errf(r.node, "IDREF %q does not match any ID in the document", r.value)
		}
	}
}

// ---- simple value validation ----

func typeLabel(st *SimpleType) string {
	if st.Name != "" {
		return st.Name
	}
	return "anonymous type"
}

// checkSimpleValue validates a lexical value against a simple type,
// walking the restriction chain so every level's facets apply. When the
// chain reaches a list variety, each whitespace-separated token is
// checked against the item type; a union accepts the value as soon as
// any member does.
func checkSimpleValue(st *SimpleType, raw string) error {
	v := st.normalize(raw)
	isList := st.isList()
	for cur := st; cur != nil; cur = cur.base {
		switch {
		case cur.builtin != btNone:
			return checkBuiltin(cur.builtin, v)
		case cur.Item != nil:
			for _, tok := range strings.Fields(v) {
				if err := checkSimpleValue(cur.Item, tok); err != nil {
					return fmt.Errorf("list item %q: %v", tok, err)
				}
			}
			return nil
		case len(cur.Members) > 0:
			for _, mem := range cur.Members {
				if checkSimpleValue(mem, v) == nil {
					return nil
				}
			}
			return fmt.Errorf("%q does not match any member type of union %s", v, typeLabel(cur))
		}
		if err := checkFacets(cur, v, isList); err != nil {
			return err
		}
	}
	return nil
}

// isList reports whether the type's derivation chain bottoms out in a
// list variety, which switches length facets to counting items.
func (st *SimpleType) isList() bool {
	for cur := st; cur != nil; cur = cur.base {
		if cur.Item != nil {
			return true
		}
		if cur.builtin != btNone || len(cur.Members) > 0 {
			return false
		}
	}
	return false
}

// hasMembers reports whether the chain bottoms out in a union variety.
func (st *SimpleType) hasMembers() bool {
	for cur := st; cur != nil; cur = cur.base {
		if len(cur.Members) > 0 {
			return true
		}
		if cur.builtin != btNone || cur.Item != nil {
			return false
		}
	}
	return false
}

func checkFacets(st *SimpleType, v string, isList bool) error {
	if len(st.Enum) > 0 {
		ok := false
		for _, e := range st.Enum {
			if v == e {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%q is not one of the allowed values (%s) of type %s",
				v, strings.Join(st.Enum, ", "), typeLabel(st))
		}
	}
	for i, re := range st.Patterns {
		if !re.MatchString(v) {
			return fmt.Errorf("%q does not match pattern %q of type %s", v, st.patternSrcs[i], typeLabel(st))
		}
	}
	// Length facets count characters, or items for list varieties.
	n := len([]rune(v))
	unit := "length"
	if isList {
		n = len(strings.Fields(v))
		unit = "item count"
	}
	if st.Length != nil && n != *st.Length {
		return fmt.Errorf("%q has %s %d, want exactly %d", v, unit, n, *st.Length)
	}
	if st.MinLength != nil && n < *st.MinLength {
		return fmt.Errorf("%q has %s %d, want at least %d", v, unit, n, *st.MinLength)
	}
	if st.MaxLength != nil && n > *st.MaxLength {
		return fmt.Errorf("%q has %s %d, want at most %d", v, unit, n, *st.MaxLength)
	}
	if st.TotalDigits != nil || st.FractionDigits != nil {
		total, frac, ok := digitCounts(v)
		if !ok {
			return fmt.Errorf("%q is not a decimal but type %s has digit facets", v, typeLabel(st))
		}
		if st.TotalDigits != nil && total > *st.TotalDigits {
			return fmt.Errorf("%q has %d significant digits, totalDigits allows %d", v, total, *st.TotalDigits)
		}
		if st.FractionDigits != nil && frac > *st.FractionDigits {
			return fmt.Errorf("%q has %d fraction digits, fractionDigits allows %d", v, frac, *st.FractionDigits)
		}
	}
	if st.MinInclusive != nil || st.MaxInclusive != nil || st.MinExclusive != nil || st.MaxExclusive != nil {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%q is not numeric but type %s has range facets", v, typeLabel(st))
		}
		if st.MinInclusive != nil && f < *st.MinInclusive {
			return fmt.Errorf("%v is below minInclusive %v", f, *st.MinInclusive)
		}
		if st.MaxInclusive != nil && f > *st.MaxInclusive {
			return fmt.Errorf("%v is above maxInclusive %v", f, *st.MaxInclusive)
		}
		if st.MinExclusive != nil && f <= *st.MinExclusive {
			return fmt.Errorf("%v is not above minExclusive %v", f, *st.MinExclusive)
		}
		if st.MaxExclusive != nil && f >= *st.MaxExclusive {
			return fmt.Errorf("%v is not below maxExclusive %v", f, *st.MaxExclusive)
		}
	}
	return nil
}

// digitCounts parses a decimal lexical value and counts its significant
// digits: leading zeros of the integer part and trailing zeros of the
// fraction part do not count (per the XSD totalDigits/fractionDigits
// value space definition).
func digitCounts(v string) (total, frac int, ok bool) {
	s := strings.TrimLeft(v, "+-")
	if s == "" {
		return 0, 0, false
	}
	intPart, fracPart := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart = s[:i], s[i+1:]
	}
	for _, r := range intPart + fracPart {
		if r < '0' || r > '9' {
			return 0, 0, false
		}
	}
	if intPart == "" && fracPart == "" {
		return 0, 0, false
	}
	intPart = strings.TrimLeft(intPart, "0")
	fracPart = strings.TrimRight(fracPart, "0")
	return len(intPart) + len(fracPart), len(fracPart), true
}

// ---- identity constraints ----

// checkIdentity evaluates the key/unique/keyref constraints declared on
// decl against the subtree rooted at scope. Keyrefs resolve against the
// keys declared on the same element, matching how the paper's schema
// declares them all on the root. Each key or unique constraint's table
// is built once, at its own turn or when a keyref needs it first, and
// every keyref referring to it reads the same table.
func (v *validator) checkIdentity(scope *xmldom.Node, decl *ElementDecl) {
	tables := make([]map[string]*xmldom.Node, len(decl.Constraints))
	table := func(i int) map[string]*xmldom.Node {
		if tables[i] == nil {
			tables[i] = v.keyTable(scope, decl.Constraints[i])
		}
		return tables[i]
	}
	for i, ic := range decl.Constraints {
		if ic.Kind != KeyrefConstraint {
			table(i)
			continue
		}
		target := -1
		for j, other := range decl.Constraints {
			if other.Name == ic.Refer && other.Kind != KeyrefConstraint {
				target = j
				break
			}
		}
		if target < 0 {
			v.report(scope, &IdentityViolation{Constraint: ic, Scope: scope, Node: scope},
				"keyref %s refers to unknown key %s", ic.Name, ic.Refer)
			continue
		}
		keys := table(target)
		tuples, nodes := v.collectTuples(scope, ic)
		for k, tup := range tuples {
			if tup != "" && keys[tup] == nil {
				v.report(nodes[k], &IdentityViolation{Constraint: ic, Scope: scope, Node: nodes[k], Value: tup,
					Target: decl.Constraints[target], Keys: keys},
					"keyref %s: value (%s) does not match any %s value", ic.Name, tup, ic.Refer)
			}
		}
	}
}

// keyTable evaluates a key or unique constraint within scope, reporting
// its violations, and returns each field tuple mapped to the first node
// selecting it.
func (v *validator) keyTable(scope *xmldom.Node, ic *IdentityConstraint) map[string]*xmldom.Node {
	tuples, nodes := v.collectTuples(scope, ic)
	first := make(map[string]*xmldom.Node, len(tuples))
	for k, tup := range tuples {
		n := nodes[k]
		switch prev := first[tup]; {
		case tup == "":
			if ic.Kind == KeyConstraint {
				v.report(n, &IdentityViolation{Constraint: ic, Scope: scope, Node: n},
					"key %s: a selected node is missing a field value", ic.Name)
			}
		case prev != nil:
			v.report(n, &IdentityViolation{Constraint: ic, Scope: scope, Node: n, Value: tup, First: prev},
				"%s %s: duplicate value (%s) also selected at %s", ic.Kind, ic.Name, tup, prev.Path())
		default:
			first[tup] = n
		}
	}
	return first
}

// selectHook, when set by a test, observes every identity-constraint
// selector evaluation.
var selectHook func(ic *IdentityConstraint, scope *xmldom.Node)

// collectTuples evaluates the selector and fields of a constraint and
// returns one encoded tuple per selected node (empty string when a field
// is absent). The tuple slice is validator scratch, valid until the next
// call.
func (v *validator) collectTuples(scope *xmldom.Node, ic *IdentityConstraint) ([]string, []*xmldom.Node) {
	if selectHook != nil {
		selectHook(ic, scope)
	}
	ctx := xpath.GetContext()
	defer xpath.PutContext(ctx)
	ctx.Node, ctx.Position, ctx.Size = scope, 1, 1
	selected, err := ic.Selector.EvalNodes(ctx)
	if err != nil {
		v.report(scope, &IdentityViolation{Constraint: ic, Scope: scope, Node: scope},
			"%s %s: selector %q failed: %v", ic.Kind, ic.Name, ic.selectorSrc, err)
		return nil, nil
	}
	tuples := v.tuples[:0]
	// One context and one field-part buffer serve every selected node:
	// field expressions do not retain the context past Eval.
	parts := v.parts[:0]
	for _, n := range selected {
		parts = parts[:0]
		complete := true
		for _, f := range ic.Fields {
			ctx.Node = n
			fv, err := f.Eval(ctx)
			if err != nil {
				v.report(n, &IdentityViolation{Constraint: ic, Scope: scope, Node: n},
					"%s %s: field failed: %v", ic.Kind, ic.Name, err)
				complete = false
				break
			}
			ns, isNS := fv.(xpath.NodeSet)
			if isNS && len(ns) == 0 {
				complete = false
				break
			}
			parts = append(parts, xpath.ToString(fv))
		}
		tup := ""
		if complete {
			// Encode with an unlikely separator so multi-field tuples
			// cannot collide.
			tup = strings.Join(parts, "\x1f")
		}
		tuples = append(tuples, tup)
	}
	v.parts, v.tuples = parts[:0], tuples[:0]
	return tuples, selected
}

func particleLabel(p *Particle) string {
	switch p.Kind {
	case PElement:
		return elementCard(p)
	case PAny:
		return "any" + cardSuffix(p)
	case PSequence, PChoice, PAll:
		sep := ", "
		if p.Kind == PChoice {
			sep = " | "
		}
		parts := make([]string, len(p.Children))
		for i, c := range p.Children {
			parts[i] = particleLabel(c)
		}
		return "(" + strings.Join(parts, sep) + ")" + cardSuffix(p)
	}
	return "?"
}

func elementCard(p *Particle) string {
	return p.Elem.Name + cardSuffix(p)
}

func cardSuffix(p *Particle) string {
	switch {
	case p.Min == 1 && p.Max == 1:
		return ""
	case p.Min == 0 && p.Max == 1:
		return "?"
	case p.Min == 0 && p.Max == Unbounded:
		return "*"
	case p.Min == 1 && p.Max == Unbounded:
		return "+"
	case p.Max == Unbounded:
		return fmt.Sprintf("{%d,}", p.Min)
	default:
		return fmt.Sprintf("{%d,%d}", p.Min, p.Max)
	}
}
