package main

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{n: 10000, pct: 99.9, beyond: 10, ok: true},
		{n: 9999, pct: 99, beyond: 99, ok: true},
		{n: 5000, pct: 99, beyond: 50, ok: true},
		{n: 1000, pct: 99, beyond: 10, ok: true},
		{n: 999, pct: 90, beyond: 99, ok: true},
		{n: 100, pct: 90, beyond: 10, ok: true},
		{n: 99, pct: 50, beyond: 49, ok: true},
		{n: 20, pct: 50, beyond: 10, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	} {
		pct, beyond, ok := tailPercentile(tc.n)
		if ok != tc.ok || (ok && (pct != tc.pct || beyond != tc.beyond)) {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d beyond, %v", tc.n, pct, beyond, ok, tc.pct, tc.beyond, tc.ok)
		}
	}
}

func TestTooFewSamplesBeyondTheTailFailTheRun(t *testing.T) {
	phaseOf := func(n int) *phase {
		ph := &phase{elapsed: time.Second}
		for i := 0; i < n; i++ {
			ph.samples = append(ph.samples, sample{class: "x", lat: time.Duration(i+1) * time.Millisecond, done: time.Duration(i) * time.Millisecond})
		}
		return ph
	}
	// p75 of 40 samples leaves 10 beyond it; of 39, only 9.
	if _, _, ok := endToEnd(phaseOf(40), []float64{1}, 75); !ok {
		t.Error("40 samples at p75 leave 10 beyond, yet the run failed")
	}
	if _, _, ok := endToEnd(phaseOf(39), []float64{1}, 75); ok {
		t.Error("39 samples at p75 leave 9 beyond, yet the run passed")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1} {
		if got := quantile(vals, q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// streamOf draws n statements of a workload's first lane.
func streamOf(w *workload, seed uint64, n int) []stmt {
	o := newOracle(generate(seed, w.data))
	next := w.stream(o, seed, 0)
	out := make([]stmt, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func dataDigest(d *dataset) digest {
	var rows [][]any
	rows = append(rows, newOracle(d).export()...)
	for _, o := range d.orders {
		rows = append(rows, []any{o.id, o.cust, date(o.date), o.status, o.totalValue()})
	}
	for _, p := range d.payments {
		rows = append(rows, []any{p.id, p.cust, decimal(p.amount), date(p.date)})
	}
	for _, it := range d.items {
		rows = append(rows, []any{it.id, it.order, it.product, it.qty, decimal(it.price)})
	}
	return digestRows(rows)
}

func TestSeedDeterminesStreamAndData(t *testing.T) {
	for _, name := range []string{"reporting", "adhoc"} {
		w := findWorkload(name)
		a, b, c := streamOf(w, 7, 200), streamOf(w, 7, 200), streamOf(w, 8, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different statement streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same statement stream", name)
		}
	}
	if dataDigest(generate(7, demoSizes)) != dataDigest(generate(7, demoSizes)) {
		t.Error("the same seed gave different data")
	}
	if dataDigest(generate(7, demoSizes)) == dataDigest(generate(8, demoSizes)) {
		t.Error("different seeds gave the same data")
	}
}

// tiny is a hand-checked dataset: NULL cities (1002, 1004), a NULL
// signup date (1003), customers without orders (1003, 1004), a NULL order
// total (5002), and a customer without payments (1001).
func tiny() *oracle {
	return newOracle(&dataset{
		customers: []customer{
			{id: 1000, name: "Ann Holdings", city: "Riverton", signup: "2001-02-03"},
			{id: 1001, name: "Bob Supermart", city: "Riverton", signup: "2002-03-04"},
			{id: 1002, name: "Eve Logistics", signup: "2003-04-05"},
			{id: 1003, name: "Max Parts & Service", city: "Lakeside"},
			{id: 1004, name: "Ida Trading Co <EU>", signup: "2004-05-06"},
		},
		orders: []order{
			{id: 5000, cust: 1000, date: "2004-01-01", status: "OPEN", total: 1050},
			{id: 5001, cust: 1000, date: "2004-01-02", status: "HOLD", total: 2000},
			{id: 5002, cust: 1001, date: "2004-01-03", status: "OPEN", totalNull: true},
			{id: 5003, cust: 1002, date: "2004-01-04", status: "OPEN", total: 999},
		},
		payments: []payment{
			{id: 1, cust: 1000, amount: 70000, date: "2003-01-01"},
			{id: 2, cust: 1002, amount: 100, date: "2003-01-02"},
		},
	})
}

func checkRows(t *testing.T, what string, got, want [][]any) {
	t.Helper()
	if digestRows(got) != digestRows(want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestOracleOnHandCheckedRows(t *testing.T) {
	o := tiny()
	checkRows(t, "point(1002)", o.point(1002), [][]any{{nil}})
	checkRows(t, "point(1003)", o.point(1003), [][]any{{"Lakeside"}})
	checkRows(t, "point(999)", o.point(999), nil)
	// Riverton has three orders (one with a NULL total); Lakeside none; NULL
	// cities are not a group.
	checkRows(t, "report", o.report(), [][]any{{"Riverton", int64(3), decimal(3050)}})
	// NOT EXISTS: only customers with no order at all, below the bound.
	checkRows(t, "drill(1004)", o.drill(1004), [][]any{{int64(1003), "Max Parts & Service"}})
	checkRows(t, "drill(1005)", o.drill(1005), [][]any{{int64(1003), "Max Parts & Service"}, {int64(1004), "Ida Trading Co <EU>"}})
	// CITY = 'Riverton' OR SIGNUPDATE IS NULL: 1002 and 1004 have NULL
	// cities and signup dates, so the disjunction is unknown and drops them.
	checkRows(t, "filter", o.filter(1000, 1004, "Riverton"), [][]any{
		{int64(1000), "Ann Holdings", "Riverton"}, {int64(1001), "Bob Supermart", "Riverton"}, {int64(1003), "Max Parts & Service", "Lakeside"}})
	checkRows(t, "functions", o.functions("none", 1003), [][]any{
		{int64(1003), "MAX PARTS & SERVICE", int64(8), "Lakeside"}, {int64(1004), "IDA TRADING CO <EU>", nil, "none"}})
	checkRows(t, "wildcard", o.wildcard(1000, 5000), [][]any{{int64(5001), int64(1000), date("2004-01-02"), "HOLD", decimal(2000)}})
	// A NULL total never exceeds the bound.
	checkRows(t, "innerJoin", o.innerJoin(1000, 1005), [][]any{{"Ann Holdings", int64(5000), decimal(1050)}, {"Ann Holdings", int64(5001), decimal(2000)}})
	// The ON predicate removes 1002's small payment, so 1002 is
	// NULL-extended like 1001, which has no payments at all.
	checkRows(t, "outerJoin", o.outerJoin(500, 1000, 1002), [][]any{
		{int64(1000), "Riverton", int64(1), decimal(70000)}, {int64(1001), "Riverton", nil, nil}, {int64(1002), nil, nil, nil}})
	// COUNT(*) counts the NULL-total order; SUM and MAX skip it.
	checkRows(t, "groupBy", o.groupBy(1000, 1004, 1), [][]any{{"OPEN", int64(3), decimal(2049), decimal(1050)}})
	checkRows(t, "exists", o.exists(1500), [][]any{{int64(1000), "Ann Holdings"}})
}

// TestWorkloadsMatchOracle runs a few statements of every workload through
// its real client path and checks them against the oracle.
func TestWorkloadsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload")
	}
	for _, w := range workloads {
		st, err := build(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		next := w.stream(st.oracle, 3, 0)
		for i := 0; i < 40; i++ {
			s := next()
			out := st.lanes[0].run(context.Background(), s)
			if out.err != nil || out.got != s.want {
				t.Errorf("%s %s %q %v: err %v, %d rows, oracle expects %d", w.name, s.class, s.sql, s.args, out.err, out.got.rows, s.want.rows)
			}
			if w.name == "export" {
				break
			}
		}
		st.close()
	}
}
