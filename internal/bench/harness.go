package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/sqlparser"
)

// Report runs every experiment and prints the tables EXPERIMENTS.md
// records, in the order of the experiment index in DESIGN.md.
func Report(w io.Writer) error {
	if err := ReportResultHandling(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ReportTranslation(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ReportMetadataCache(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ReportStageBreakdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ReportEvalJoin(w, DefaultEvalJoinSizes); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ReportFaultSweep(w, DefaultFaultRates, DefaultFaultRuns); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ReportCompile(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := ReportStream(w, DefaultStreamRows); err != nil {
		return err
	}
	fmt.Fprintln(w)
	// A reduced P11 sweep: one cardinality just above the parallel
	// threshold keeps the human-readable report quick; the full rows ×
	// workers table is what -evaljson records.
	if err := ReportEvalParallel(w, []int{8192}, DefaultEvalParallelWorkers); err != nil {
		return err
	}
	fmt.Fprintln(w)
	// A reduced P13 sweep for the same reason; -federatejson records the
	// full shards × rows table.
	return ReportFederate(w, []int{4}, []int{4000})
}

// ResultHandlingPoint is one cell of the §4 sweep.
type ResultHandlingPoint struct {
	Rows, Cols            int
	XMLBytes, TextBytes   int
	XMLDecode, TextDecode time.Duration
	SpeedupDecode         float64
	BytesRatio            float64
}

// RunResultHandling measures XML vs text decoding across a size sweep.
func RunResultHandling(rowCounts, colCounts []int, iters int) ([]ResultHandlingPoint, error) {
	var out []ResultHandlingPoint
	for _, cols := range colCounts {
		for _, rows := range rowCounts {
			p, err := BuildPayloads(rows, cols)
			if err != nil {
				return nil, err
			}
			xmlTime, err := timeIt(iters, func() error {
				_, err := p.DecodeXML()
				return err
			})
			if err != nil {
				return nil, err
			}
			textTime, err := timeIt(iters, func() error {
				_, err := p.DecodeText()
				return err
			})
			if err != nil {
				return nil, err
			}
			pt := ResultHandlingPoint{
				Rows: rows, Cols: cols,
				XMLBytes: len(p.XML), TextBytes: len(p.Text),
				XMLDecode:  xmlTime / time.Duration(iters),
				TextDecode: textTime / time.Duration(iters),
			}
			if textTime > 0 {
				pt.SpeedupDecode = float64(xmlTime) / float64(textTime)
			}
			if pt.TextBytes > 0 {
				pt.BytesRatio = float64(pt.XMLBytes) / float64(pt.TextBytes)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// ReportResultHandling prints the P1 table.
func ReportResultHandling(w io.Writer) error {
	fmt.Fprintln(w, "P1  Result handling: XML materialization vs text-delimited (§4)")
	fmt.Fprintln(w, "rows   cols   xml-bytes  text-bytes  bytes-ratio  xml-decode   text-decode  speedup")
	points, err := RunResultHandling([]int{100, 1000, 10000}, []int{2, 4, 8}, 20)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-6d %-6d %-10d %-11d %-12.2f %-12s %-12s %.2fx\n",
			p.Rows, p.Cols, p.XMLBytes, p.TextBytes, p.BytesRatio,
			p.XMLDecode.Round(time.Microsecond), p.TextDecode.Round(time.Microsecond), p.SpeedupDecode)
	}
	return nil
}

// TranslationPoint is one row of the P2 table.
type TranslationPoint struct {
	Name    string
	PerCall time.Duration
}

// RunTranslation measures translation latency per workload class (warm
// metadata cache, mirroring a driver connection in steady state).
func RunTranslation(iters int) ([]TranslationPoint, error) {
	tr, _ := NewDemoTranslator(0, true)
	var out []TranslationPoint
	for _, q := range TranslationWorkload {
		// Warm up (also surfaces translation errors).
		if _, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, q.SQL, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		total, err := timeIt(iters, func() error {
			_, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, q.SQL, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, TranslationPoint{Name: q.Name, PerCall: total / time.Duration(iters)})
	}
	return out, nil
}

// ReportTranslation prints the P2 table.
func ReportTranslation(w io.Writer) error {
	fmt.Fprintln(w, "P2  Translation latency per query class (§3.2 efficiency goal)")
	fmt.Fprintln(w, "class      per-translate")
	points, err := RunTranslation(200)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-10s %s\n", p.Name, p.PerCall.Round(time.Microsecond))
	}
	return nil
}

// CachePoint is one row of the P3 table.
type CachePoint struct {
	Mode    string
	PerCall time.Duration
}

// RunMetadataCache measures translate latency with a simulated remote
// metadata API: cold (cache invalidated every call) vs warm.
func RunMetadataCache(latency time.Duration, iters int) ([]CachePoint, error) {
	sql := "SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT FROM CUSTOMERS INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"

	coldTr, coldCache := NewDemoTranslator(latency, true)
	cold, err := timeIt(iters, func() error {
		coldCache.Invalidate()
		_, err := coldTr.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	warmTr, _ := NewDemoTranslator(latency, true)
	if _, err := warmTr.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil); err != nil {
		return nil, err
	}
	warm, err := timeIt(iters, func() error {
		_, err := warmTr.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	return []CachePoint{
		{Mode: "cold (fetch per query)", PerCall: cold / time.Duration(iters)},
		{Mode: "warm (cached)", PerCall: warm / time.Duration(iters)},
	}, nil
}

// ReportMetadataCache prints the P3 table.
func ReportMetadataCache(w io.Writer) error {
	latency := 500 * time.Microsecond
	fmt.Fprintf(w, "P3  Metadata cache under simulated remote latency (%s per fetch, §3.5)\n", latency)
	fmt.Fprintln(w, "mode                     per-translate")
	points, err := RunMetadataCache(latency, 50)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-24s %s\n", p.Mode, p.PerCall.Round(time.Microsecond))
	}
	return nil
}

func timeIt(iters int, f func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
