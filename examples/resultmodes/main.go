// Resultmodes: demonstrates §4 of the paper — the two result-handling
// strategies of the JDBC driver. The same SQL runs twice: once returning
// the natural RECORDSET XML (materialized and parsed client-side), once
// wrapped in the fn:string-join query that yields delimiter-separated text.
// The example prints both payloads for a tiny result, then times both
// decoders on a larger one.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	aqualogic "repro"
	"repro/internal/bench"
)

func main() {
	p := aqualogic.Demo()
	sql := "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID < 1003 ORDER BY CUSTOMERID"

	// What travels in XML mode.
	xmlRes, err := p.TranslateDialect(aqualogic.DialectSQL, sql, aqualogic.ModeXML)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== XML mode: the tail of the generated query ==")
	fmt.Println(lastLines(xmlRes.XQuery(), 12))

	// What travels in text mode: same query wrapped per §4.
	textRes, err := p.TranslateDialect(aqualogic.DialectSQL, sql, aqualogic.ModeText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== text mode: the §4 wrapper around the same query ==")
	fmt.Println(firstLines(textRes.XQuery(), 6))
	fmt.Println("  …")

	rows, err := p.QueryDialect(context.Background(), aqualogic.DialectSQL, aqualogic.ModeText, sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== decoded rows (identical in both modes) ==")
	fmt.Print(rows.Table())

	// The §4 measurement on a larger result: 5000 rows × 6 columns.
	payloads, err := bench.BuildPayloads(5000, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== payload sizes for 5000×6 ==\nXML:  %d bytes\ntext: %d bytes (%.2fx smaller)\n",
		len(payloads.XML), len(payloads.Text), float64(len(payloads.XML))/float64(len(payloads.Text)))

	timeDecode := func(name string, f func() error) time.Duration {
		const iters = 10
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				log.Fatal(err)
			}
		}
		d := time.Since(start) / iters
		fmt.Printf("%s decode: %s per result set\n", name, d.Round(time.Microsecond))
		return d
	}
	xmlTime := timeDecode("XML ", func() error { _, err := payloads.DecodeXML(); return err })
	textTime := timeDecode("text", func() error { _, err := payloads.DecodeText(); return err })
	fmt.Printf("text mode is %.1fx faster — the \"measurable improvement\" §4 reports\n",
		float64(xmlTime)/float64(textTime))
}

func firstLines(s string, n int) string {
	out, count := "", 0
	for _, line := range splitLines(s) {
		out += line + "\n"
		count++
		if count == n {
			break
		}
	}
	return out
}

func lastLines(s string, n int) string {
	lines := splitLines(s)
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	out := ""
	for _, line := range lines {
		out += line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
