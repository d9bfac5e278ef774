package xsd

import (
	"fmt"
	"strings"
	"testing"

	"goldweb/internal/xmldom"
)

// identitySchema declares, on the document element and again on every
// group, one key and keyrefs to it; the document element's first keyref
// is declared before the key it refers to.
const identitySchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" maxOccurs="unbounded">
          <xs:complexType><xs:attribute name="id" type="xs:string"/></xs:complexType>
        </xs:element>
        <xs:element name="ref" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:attribute name="a" type="xs:string"/><xs:attribute name="b" type="xs:string"/>
            <xs:attribute name="c" type="xs:string"/><xs:attribute name="d" type="xs:string"/>
          </xs:complexType>
        </xs:element>
        <xs:element name="group" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="item" maxOccurs="unbounded">
                <xs:complexType><xs:attribute name="id" type="xs:string"/></xs:complexType>
              </xs:element>
              <xs:element name="ref" minOccurs="0" maxOccurs="unbounded">
                <xs:complexType><xs:attribute name="a" type="xs:string"/></xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
          <xs:key name="gk"><xs:selector xpath="item"/><xs:field xpath="@id"/></xs:key>
          <xs:keyref name="g1" refer="gk"><xs:selector xpath="ref"/><xs:field xpath="@a"/></xs:keyref>
          <xs:keyref name="g2" refer="gk"><xs:selector xpath="ref"/><xs:field xpath="@a"/></xs:keyref>
          <xs:keyref name="g3" refer="gk"><xs:selector xpath="ref"/><xs:field xpath="@a"/></xs:keyref>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
    <xs:keyref name="r1" refer="k"><xs:selector xpath="ref"/><xs:field xpath="@a"/></xs:keyref>
    <xs:key name="k"><xs:selector xpath="item"/><xs:field xpath="@id"/></xs:key>
    <xs:keyref name="r2" refer="k"><xs:selector xpath="ref"/><xs:field xpath="@b"/></xs:keyref>
    <xs:keyref name="r3" refer="k"><xs:selector xpath="ref"/><xs:field xpath="@c"/></xs:keyref>
    <xs:keyref name="r4" refer="k"><xs:selector xpath="ref"/><xs:field xpath="@d"/></xs:keyref>
  </xs:element>
</xs:schema>`

// TestKeyTableSharedPerScope: however many keyrefs refer to a key, its
// selector is evaluated once per scope element, and each scope keeps its
// own table (group 2's keyrefs do not resolve against group 1's items).
func TestKeyTableSharedPerScope(t *testing.T) {
	s, err := ParseSchemaString(identitySchema)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmldom.ParseString(`<doc>
  <item id="x"/><item id="y"/><item id="x"/>
  <ref a="q" b="y" c="zz" d="x"/>
  <group><item id="g1"/><ref a="g1"/></group>
  <group><item id="g2"/><ref a="g1"/></group>
</doc>`)
	if err != nil {
		t.Fatal(err)
	}
	evals := map[string]int{}
	selectHook = func(ic *IdentityConstraint, scope *xmldom.Node) {
		evals[fmt.Sprintf("%s@%s", ic.Name, scope.Path())]++
	}
	defer func() { selectHook = nil }()
	errs := s.Validate(doc, ValidateOptions{})

	for _, key := range []string{"k@/doc", "gk@/doc/group[1]", "gk@/doc/group[2]"} {
		if evals[key] != 1 {
			t.Errorf("key selector %s evaluated %d times, want once", key, evals[key])
		}
	}
	for name, n := range evals {
		if n != 1 {
			t.Errorf("selector %s evaluated %d times, want once", name, n)
		}
	}

	// k's violations are reported when r1 first builds its table; group
	// 2's three keyrefs each miss g1.
	var got []string
	for _, e := range errs {
		if e.Identity == nil {
			t.Errorf("violation without identity fields: %v", e)
			continue
		}
		got = append(got, e.Identity.Constraint.Name+"@"+e.Identity.Scope.Path())
	}
	want := []string{
		"g1@/doc/group[2]", "g2@/doc/group[2]", "g3@/doc/group[2]",
		"k@/doc", "r1@/doc", "r3@/doc",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("violations %v, want %v", got, want)
	}
	for _, e := range errs {
		id := e.Identity
		switch id.Constraint.Name {
		case "k":
			if id.Value != "x" || id.First == nil || id.First.GetAttr("id") == nil || id.First == id.Node {
				t.Errorf("duplicate fields: %+v", id)
			}
		case "r3":
			if id.Value != "zz" || id.Target == nil || id.Target.Name != "k" || len(id.Keys) != 2 {
				t.Errorf("unresolved keyref fields: %+v", id)
			}
		}
	}
}
