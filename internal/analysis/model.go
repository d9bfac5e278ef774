package analysis

import (
	"fmt"
	"sort"
	"strings"

	"goldweb/internal/xmldom"
	"goldweb/internal/xsd"
)

// LintModelSource parses and lints one model document against the
// schema: GW401 for structural/type violations, GW402 for referential
// (key/keyref) violations with messages that name the governing key.
func LintModelSource(file string, src []byte, schema *xsd.Schema) []Diagnostic {
	doc, err := xmldom.Parse(src)
	if err != nil {
		d := Diagnostic{File: file, Severity: SevError, Code: CodeModelInvalid, Msg: err.Error()}
		if pe, ok := err.(*xmldom.ParseError); ok {
			d.Line, d.Col, d.Msg = pe.Line, pe.Col, pe.Msg
		}
		return []Diagnostic{d}
	}
	return LintModel(file, doc, schema)
}

// LintModel lints an already-parsed model document with one full
// validation: schema-supplied attribute defaults are applied to doc in
// place, exactly as at publication time, so doc must not be frozen.
func LintModel(file string, doc *xmldom.Node, schema *xsd.Schema) []Diagnostic {
	return ModelDiagnostics(file, schema.Validate(doc, xsd.ValidateOptions{ApplyDefaults: true}))
}

// ModelDiagnostics renders a validation verdict as sorted diagnostics:
// GW402 for identity-constraint violations, from their structured form
// (the governing key named, scoped per declaring element instance
// exactly as §3.1 prescribes), GW401 for everything else.
func ModelDiagnostics(file string, errs []xsd.ValidationError) []Diagnostic {
	var diags []Diagnostic
	for _, e := range errs {
		d := Diagnostic{File: file, Line: e.Line, Severity: SevError, Code: CodeModelInvalid, Msg: e.Path + ": " + e.Msg}
		if id := e.Identity; id != nil {
			ic := id.Constraint
			d.Col, d.Code = id.Node.Col, CodeBrokenKeyref
			switch {
			case id.First != nil:
				d.Msg = fmt.Sprintf("%s '%s': duplicate value '%s' (first selected at line %d)",
					ic.Kind, ic.Name, id.Value, id.First.Line)
			case id.Target != nil:
				d.Msg = fmt.Sprintf("keyref '%s': value '%s' matches no '%s' key value within %s (key selects %s, field %s; declared values: %s)",
					ic.Name, id.Value, ic.Refer, id.Scope.Name,
					id.Target.SelectorSource(), strings.Join(id.Target.FieldSources(), ", "),
					valueList(id.Keys))
			}
		}
		diags = append(diags, d)
	}
	Sort(diags)
	return diags
}

// valueList renders up to eight declared key values, sorted, for the
// GW402 message.
func valueList(keys map[string]*xmldom.Node) string {
	if len(keys) == 0 {
		return "(none)"
	}
	vals := make([]string, 0, len(keys))
	for v := range keys {
		vals = append(vals, strings.ReplaceAll(v, "\x1f", "|"))
	}
	sort.Strings(vals)
	if len(vals) > 8 {
		vals = append(vals[:8], "…")
	}
	return strings.Join(vals, ", ")
}
