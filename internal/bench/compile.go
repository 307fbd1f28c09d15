package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xqeval"
)

// CompilePoint is one row of the P8 experiment: per-call latency of the
// three compile paths for one workload class. "Textual" is the legacy
// boundary the paper's driver/server split forces — translate, serialize,
// re-parse, check, plan; "cold" is the compiled-query path — translate,
// then check + plan the AST directly; "cached" is a shared-compile-cache
// hit on the same statement.
type CompilePoint struct {
	Name  string `json:"class"`
	Iters int    `json:"iters"`
	// Per-call wall time in nanoseconds for each path.
	TextualNS int64 `json:"textual_ns"`
	ColdNS    int64 `json:"cold_ns"`
	CachedNS  int64 `json:"cached_ns"`
	// Speedups of the cached path (textual_ns/cached_ns, cold_ns/cached_ns)
	// and of cold over textual (the serialize∘parse tax).
	SpeedupCachedVsTextual float64 `json:"speedup_cached_vs_textual"`
	SpeedupCachedVsCold    float64 `json:"speedup_cached_vs_cold"`
	SpeedupColdVsTextual   float64 `json:"speedup_cold_vs_textual"`
}

// RunCompileSweep measures the P8 compile paths per workload class over a
// warm metadata cache (steady-state driver behavior; the metadata fetch
// cost is P3's experiment, not this one).
func RunCompileSweep(iters int) ([]CompilePoint, error) {
	app, _, engine := demo.Setup(demo.DefaultSizes)
	trans := translator.New(catalog.NewCache(app))
	ctx := context.Background()

	var out []CompilePoint
	for _, q := range TranslationWorkload {
		// Warm up metadata and surface errors before measuring.
		warm, err := qcache.Compile(ctx, trans, engine, sqlparser.Front{}, q.SQL, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		ext := warm.ExternalVars()

		textual, err := timeIt(iters, func() error {
			res, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, q.SQL, nil)
			if err != nil {
				return err
			}
			text := res.Query.Serialize()
			parsed, err := xqeval.Compile(text)
			if err != nil {
				return err
			}
			if _, err := engine.CompileAST(parsed, ext); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: textual: %w", q.Name, err)
		}

		cold, err := timeIt(iters, func() error {
			res, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, q.SQL, nil)
			if err != nil {
				return err
			}
			if _, err := engine.CompileAST(res.Query, ext); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: cold: %w", q.Name, err)
		}

		cache := qcache.New(qcache.Config{})
		compile := func(ctx context.Context, sql string) (*qcache.CompiledQuery, error) {
			return qcache.Compile(ctx, trans, engine, sqlparser.Front{}, sql, obsv.NewTrace(sql))
		}
		if _, _, err := cache.Get(ctx, sqlparser.Front{}, q.SQL, warm.Mode, compile); err != nil {
			return nil, fmt.Errorf("%s: prime: %w", q.Name, err)
		}
		cached, err := timeIt(iters, func() error {
			_, hit, err := cache.Get(ctx, sqlparser.Front{}, q.SQL, warm.Mode, compile)
			if err != nil {
				return err
			}
			if !hit {
				return fmt.Errorf("primed lookup missed")
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: cached: %w", q.Name, err)
		}

		pt := CompilePoint{
			Name:      q.Name,
			Iters:     iters,
			TextualNS: textual.Nanoseconds() / int64(iters),
			ColdNS:    cold.Nanoseconds() / int64(iters),
			CachedNS:  cached.Nanoseconds() / int64(iters),
		}
		if pt.CachedNS > 0 {
			pt.SpeedupCachedVsTextual = float64(pt.TextualNS) / float64(pt.CachedNS)
			pt.SpeedupCachedVsCold = float64(pt.ColdNS) / float64(pt.CachedNS)
		}
		if pt.ColdNS > 0 {
			pt.SpeedupColdVsTextual = float64(pt.TextualNS) / float64(pt.ColdNS)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ReportCompile prints the P8 table.
func ReportCompile(w io.Writer) error {
	const iters = 200
	fmt.Fprintln(w, "P8  Compile paths: legacy textual vs compiled-query, cold vs cached")
	fmt.Fprintln(w, "class      textual      cold         cached       cold/textual cached/cold")
	points, err := RunCompileSweep(iters)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-10s %-12s %-12s %-12s %-12s %.0fx\n",
			p.Name,
			time.Duration(p.TextualNS).Round(100*time.Nanosecond),
			time.Duration(p.ColdNS).Round(100*time.Nanosecond),
			time.Duration(p.CachedNS).Round(10*time.Nanosecond),
			fmt.Sprintf("%.2fx", p.SpeedupColdVsTextual),
			p.SpeedupCachedVsCold)
	}
	return nil
}

// CompileReport is the JSON document WriteCompileJSON produces
// (BENCH_compile.json).
type CompileReport struct {
	Experiment string         `json:"experiment"`
	Iters      int            `json:"iters"`
	Classes    []CompilePoint `json:"classes"`
}

// WriteCompileJSON runs the compile sweep and writes it as JSON to path
// (conventionally BENCH_compile.json).
func WriteCompileJSON(path string, iters int) error {
	points, err := RunCompileSweep(iters)
	if err != nil {
		return err
	}
	doc := CompileReport{Experiment: "P8 compile paths: textual vs cold vs cached", Iters: iters, Classes: points}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
