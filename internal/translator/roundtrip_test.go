package translator_test

// The serializer/parser coherence suite: every query in the SQL-92
// conformance matrix is translated, serialized to XQuery text, re-parsed,
// and (a) must re-serialize to byte-identical text (fixed point), and
// (b) must execute to the same result as the original AST. This closes the
// loop on the textual interface the paper's driver/server boundary uses:
// the driver ships XQuery *text*, so text must carry the full semantics.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

func TestTranslationSerializeParseFixedPoint(t *testing.T) {
	for _, mode := range []translator.ResultMode{translator.ModeXML, translator.ModeText} {
		for _, c := range conformanceMatrix {
			tr := translator.New(catalog.Demo())
			tr.Options.Mode = mode
			res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, c.sql, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.feature, err)
			}
			text1 := res.XQuery()
			parsed, err := xquery.Parse(text1)
			if err != nil {
				t.Fatalf("%s (mode %v): generated XQuery failed to parse: %v\n%s", c.feature, mode, err, text1)
			}
			text2 := (&xquery.Query{Prolog: parsed.Prolog, Body: parsed.Body}).Serialize()
			if text1 != text2 {
				t.Fatalf("%s (mode %v): serialize∘parse not a fixed point:\n--- generated ---\n%s\n--- reparsed ---\n%s",
					c.feature, mode, text1, text2)
			}
		}
	}
}

func TestParsedTranslationExecutesIdentically(t *testing.T) {
	engine := fixtureEngine()
	for _, c := range conformanceMatrix {
		tr := translator.New(catalog.Demo())
		res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, c.sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.feature, err)
		}
		parsed, err := xquery.Parse(res.XQuery())
		if err != nil {
			t.Fatalf("%s: parse: %v", c.feature, err)
		}
		externals := make([]string, res.ParamCount)
		for i := range externals {
			externals[i] = fmt.Sprintf("p%d", i+1)
		}
		if err := engine.Check(parsed, externals); err != nil {
			t.Fatalf("%s: static check rejected generated query: %v", c.feature, err)
		}
		ext := map[string]xdm.Sequence{}
		for i := 0; i < res.ParamCount; i++ {
			ext[fmt.Sprintf("p%d", i+1)] = intSeq(1)
		}
		want, err := engine.EvalWith(res.Query, ext)
		if err != nil {
			t.Fatalf("%s: eval original: %v", c.feature, err)
		}
		got, err := engine.EvalWith(parsed, ext)
		if err != nil {
			t.Fatalf("%s: eval parsed: %v", c.feature, err)
		}
		if !xdm.DeepEqual(want, got) {
			t.Fatalf("%s: parsed query result differs\noriginal: %s\nparsed:   %s",
				c.feature, xdm.MarshalSequence(want), xdm.MarshalSequence(got))
		}
	}
}
