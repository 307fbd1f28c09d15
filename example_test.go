package aqualogic_test

import (
	"context"
	"fmt"
	"log"

	aqualogic "repro"
)

// ExamplePlatform_TranslateDialect shows the paper's core transformation:
// a SQL SELECT over a data service presented as a table becomes an XQuery
// over the data service function.
func ExamplePlatform_TranslateDialect() {
	p := aqualogic.Demo()
	res, err := p.TranslateDialect(aqualogic.DialectSQL, "SELECT CUSTOMERID ID FROM CUSTOMERS WHERE CUSTOMERID = 1000", aqualogic.ModeXML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.XQuery())
	// Output:
	// import schema namespace ns0 =
	//   "ld:TestDataServices/CUSTOMERS" at
	//   "ld:TestDataServices/schemas/CUSTOMERS.xsd";
	//
	// <RECORDSET>
	//   {
	//     for $var1FR1 in ns0:CUSTOMERS()
	//     where ($var1FR1/CUSTOMERID = xs:integer(1000))
	//     return
	//       <RECORD>
	//         <ID>{fn:data($var1FR1/CUSTOMERID)}</ID>
	//       </RECORD>
	//   }
	// </RECORDSET>
}

// ExamplePlatform_QueryDialect runs SQL end to end against a custom data
// service.
func ExamplePlatform_QueryDialect() {
	app := &aqualogic.Application{Name: "MiniApp"}
	app.AddDSFile(&aqualogic.DSFile{
		Path: "Mini",
		Name: "ITEMS",
		Functions: []*aqualogic.Function{
			aqualogic.NewRelationalImport("Mini", "ITEMS", []aqualogic.Column{
				{Name: "ID", Type: aqualogic.SQLInteger},
				{Name: "NAME", Type: aqualogic.SQLVarchar, Nullable: true},
			}),
		},
	})
	engine := aqualogic.NewEngine()
	aqualogic.RegisterRows(engine, "ld:Mini/ITEMS", "ITEMS", []*aqualogic.Element{
		aqualogic.NewRow("ITEMS", "ID", "2", "NAME", "bolt"),
		aqualogic.NewRow("ITEMS", "ID", "1", "NAME", "nut"),
		aqualogic.NewRow("ITEMS", "ID", "3", "NAME", ""),
	})

	p := aqualogic.New(app, engine)
	rows, err := p.QueryDialect(context.Background(), aqualogic.DialectSQL, aqualogic.ModeText, "SELECT ID, NAME FROM ITEMS ORDER BY ID")
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		id, _, _ := rows.Int64(0)
		name, ok, _ := rows.String(1)
		if !ok {
			name = "NULL"
		}
		fmt.Printf("%d %s\n", id, name)
	}
	// Output:
	// 1 nut
	// 2 bolt
	// 3 NULL
}
