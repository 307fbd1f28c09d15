// Quickstart: build a data-service catalog, serve rows, translate a SQL
// query to XQuery, and run it end to end — the smallest complete tour of
// the library.
package main

import (
	"context"
	"fmt"
	"log"

	aqualogic "repro"
)

func main() {
	ctx := context.Background()
	// 1. Describe the application's metadata: one data service (BOOKS)
	//    imported from a relational source, exactly like the paper's
	//    Example 2 .ds file.
	app := &aqualogic.Application{Name: "BookstoreApp"}
	app.AddDSFile(&aqualogic.DSFile{
		Path: "Bookstore",
		Name: "BOOKS",
		Functions: []*aqualogic.Function{
			aqualogic.NewRelationalImport("Bookstore", "BOOKS", []aqualogic.Column{
				{Name: "BOOKID", Type: aqualogic.SQLInteger},
				{Name: "TITLE", Type: aqualogic.SQLVarchar, Precision: 64},
				{Name: "AUTHOR", Type: aqualogic.SQLVarchar, Nullable: true, Precision: 64},
				{Name: "PRICE", Type: aqualogic.SQLDecimal, Nullable: true, Precision: 8, Scale: 2},
			}),
		},
	})

	// 2. Serve the data: register the BOOKS() data service function with
	//    flat row elements (what a physical data service returns).
	engine := aqualogic.NewEngine()
	aqualogic.RegisterRows(engine, "ld:Bookstore/BOOKS", "BOOKS", []*aqualogic.Element{
		aqualogic.NewRow("BOOKS", "BOOKID", "1", "TITLE", "Data on the Web", "AUTHOR", "Abiteboul", "PRICE", "54.95"),
		aqualogic.NewRow("BOOKS", "BOOKID", "2", "TITLE", "XQuery from the Experts", "AUTHOR", "Katz", "PRICE", "49.50"),
		aqualogic.NewRow("BOOKS", "BOOKID", "3", "TITLE", "Anonymous Pamphlet", "AUTHOR", "", "PRICE", "5.00"),
		aqualogic.NewRow("BOOKS", "BOOKID", "4", "TITLE", "SQL-92 Complete", "AUTHOR", "Melton", "PRICE", ""),
	})

	p := aqualogic.New(app, engine)

	// 3. Translate a SQL query and inspect the generated XQuery.
	sql := "SELECT TITLE, PRICE FROM BOOKS WHERE PRICE < 50 ORDER BY PRICE DESC"
	res, err := p.TranslateDialect(aqualogic.DialectSQL, sql, aqualogic.ModeXML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- SQL:")
	fmt.Println("  ", sql)
	fmt.Println("-- generated XQuery:")
	fmt.Println(res.XQuery())

	// 4. Execute end to end (translation + XQuery evaluation + result
	//    decoding) with a parameter.
	rows, err := p.QueryDialect(ctx, aqualogic.DialectSQL, aqualogic.ModeText, "SELECT TITLE, AUTHOR, PRICE FROM BOOKS WHERE BOOKID <> ? ORDER BY BOOKID", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- result:")
	fmt.Print(rows.Table())
}
