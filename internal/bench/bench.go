// Package bench is the experiment harness behind EXPERIMENTS.md: workload
// generators and runners that regenerate the paper's quantitative content.
// The paper's only measurement claim is §4's — replacing XML materialization
// with text-delimited results "measurably improved" performance — so the
// headline experiment (P1) sweeps result sizes across both result-handling
// modes. Supporting experiments cover translation throughput (P2, the §3.2
// efficiency goal) and the metadata cache (P3, §3.5).
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/qcache"
	"repro/internal/resultset"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// WideTable builds a catalog + engine holding one table W with the given
// column count (alternating integer/string/decimal columns, one in eight
// values NULL) and row count — the §4 sweep's data source.
func WideTable(rows, cols int) (*catalog.Application, *xqeval.Engine) {
	if cols < 1 {
		cols = 1
	}
	columns := make([]catalog.Column, cols)
	for i := range columns {
		name := fmt.Sprintf("C%d", i)
		switch i % 3 {
		case 0:
			columns[i] = catalog.Column{Name: name, Type: catalog.SQLInteger, Nullable: i > 0}
		case 1:
			columns[i] = catalog.Column{Name: name, Type: catalog.SQLVarchar, Nullable: true, Precision: 32}
		default:
			columns[i] = catalog.Column{Name: name, Type: catalog.SQLDecimal, Nullable: true, Precision: 10, Scale: 2}
		}
	}
	app := &catalog.Application{Name: "BenchApp"}
	app.AddDSFile(&catalog.DSFile{
		Path:      "Bench",
		Name:      "W",
		Functions: []*catalog.Function{catalog.NewRelationalImport("Bench", "W", columns)},
	})

	data := make([]*xdm.Element, rows)
	for r := 0; r < rows; r++ {
		row := xdm.NewElement("W")
		for c := 0; c < cols; c++ {
			if c > 0 && (r+c)%8 == 0 {
				continue // NULL
			}
			var v string
			switch c % 3 {
			case 0:
				v = fmt.Sprintf("%d", r*31+c)
			case 1:
				v = fmt.Sprintf("value-%d-%d 100%% & <sons>", r, c)
			default:
				v = fmt.Sprintf("%d.%02d", r%1000, c%100)
			}
			row.AddChild(xdm.NewTextElement(columns[c].Name, v))
		}
		data[r] = row
	}
	engine := xqeval.New()
	engine.RegisterRows("ld:Bench/W", "W", data)
	return app, engine
}

// Payloads holds one query's serialized results in both §4 modes, plus the
// decoding schemas — the inputs to the result-handling measurement.
type Payloads struct {
	Rows, Cols int
	XML        string
	Text       string
	Columns    []resultset.Column
}

// BuildPayloads executes SELECT * over a WideTable in both modes and
// serializes the results, so decode costs can be measured in isolation
// (the client-side cost §4 talks about).
func BuildPayloads(rows, cols int) (*Payloads, error) {
	app, engine := WideTable(rows, cols)

	trXML := translator.New(app)
	resXML, err := trXML.TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT * FROM W", nil)
	if err != nil {
		return nil, err
	}
	outXML, err := engine.Eval(resXML.Query)
	if err != nil {
		return nil, err
	}
	it, err := outXML.Singleton()
	if err != nil {
		return nil, err
	}
	root, ok := it.(*xdm.Element)
	if !ok {
		return nil, fmt.Errorf("bench: XML result is not an element")
	}

	trText := translator.New(app)
	trText.Options.Mode = translator.ModeText
	resText, err := trText.TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT * FROM W", nil)
	if err != nil {
		return nil, err
	}
	outText, err := engine.Eval(resText.Query)
	if err != nil {
		return nil, err
	}
	itText, err := outText.Singleton()
	if err != nil {
		return nil, err
	}

	return &Payloads{
		Rows:    rows,
		Cols:    cols,
		XML:     xdm.Marshal(root),
		Text:    xdm.StringValue(itText),
		Columns: qcache.ResultColumns(resXML),
	}, nil
}

// DecodeXML runs the baseline client path: parse the XML payload and
// materialize rows.
func (p *Payloads) DecodeXML() (*resultset.Rows, error) {
	return resultset.FromXMLString(p.XML, p.Columns)
}

// DecodeText runs the §4 client path: split and type the text payload.
func (p *Payloads) DecodeText() (*resultset.Rows, error) {
	return resultset.FromText(p.Text, p.Columns)
}

// TranslationWorkload is the P2 query mix, one query per complexity class
// the paper's examples span.
var TranslationWorkload = []struct {
	Name string
	SQL  string
}{
	{"simple", "SELECT * FROM CUSTOMERS"},
	{"filter", "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CITY = 'Springfield' AND CUSTOMERID BETWEEN 1000 AND 1040"},
	{"join", "SELECT CUSTOMERS.CUSTOMERNAME, PO_CUSTOMERS.TOTAL FROM CUSTOMERS INNER JOIN PO_CUSTOMERS ON CUSTOMERS.CUSTOMERID = PO_CUSTOMERS.CUSTOMERID"},
	{"outerjoin", "SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"},
	{"subquery", "SELECT INFO.ID FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME FROM CUSTOMERS) AS INFO WHERE INFO.ID > 1010"},
	{"grouped", "SELECT CITY, COUNT(*), SUM(CUSTOMERID) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1 ORDER BY 2 DESC"},
	{"complex", `SELECT C.CITY, COUNT(*) CNT, MAX(P.TOTAL) M
		FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS P ON C.CUSTOMERID = P.CUSTOMERID
		WHERE P.STATUS IN ('OPEN', 'SHIPPED') AND C.CUSTOMERNAME LIKE '%s%'
		GROUP BY C.CITY ORDER BY CNT DESC`},
}

// NewDemoTranslator builds a translator over the demo catalog (optionally
// behind a simulated-latency remote and cache) for P2/P3.
func NewDemoTranslator(latency time.Duration, cached bool) (*translator.Translator, *catalog.Cache) {
	var src catalog.Source = catalog.Demo()
	if latency > 0 {
		src = &catalog.Remote{Inner: src, Latency: latency}
	}
	var cache *catalog.Cache
	if cached {
		cache = catalog.NewCache(src)
		src = cache
	}
	return translator.New(src), cache
}

// DemoEngine builds the demo engine at a given customer scale for
// end-to-end execution benchmarks.
func DemoEngine(customers int) (*catalog.Application, *xqeval.Engine) {
	sz := demo.DefaultSizes
	sz.Customers = customers
	sz.Orders = customers * 2
	app, _, engine := demo.Setup(sz)
	return app, engine
}

// tableRef builds an unqualified table reference (test helper surface).
func tableRef(name string) catalog.TableRef { return catalog.TableRef{Table: name} }
