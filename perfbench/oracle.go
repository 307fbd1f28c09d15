package main

import (
	"math"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/xdm"
)

// The oracle computes every statement's expected rows straight from the
// generated Go rows, with maps and loops that share nothing with the
// translator or the evaluator, and compares results as multiset digests.
// Values are canonicalized by kind so the comparison does not depend on
// lexical spelling: integers, decimals as whole cents, strings, dates as
// YYYYMMDD, and NULL.

// Oracle value kinds. A row is a []any of int64, decimal, string, date
// or nil.
type (
	decimal int64 // cents
	date    string
)

// digest is an order-insensitive fingerprint of a multiset of rows.
type digest struct {
	rows     int64
	sum, mix uint64
}

func (d *digest) add(h uint64) {
	d.rows++
	d.sum += h
	d.mix += splitmix(h)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowHash is FNV-1a over the canonical encoding of one row's values. It
// does not allocate, so hashing a result adds no garbage to the
// program's alloc_kb_per_op.
type rowHash uint64

const (
	fnvOffset rowHash = 14695981039346656037
	fnvPrime  rowHash = 1099511628211
)

func (h *rowHash) byte(b byte) { *h = (*h ^ rowHash(b)) * fnvPrime }

func (h *rowHash) str(kind byte, s string) {
	h.byte(kind)
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0)
}

func (h *rowHash) int(kind byte, n int64) {
	h.byte(kind)
	u := uint64(n)
	for i := 0; i < 8; i++ {
		h.byte(byte(u >> (8 * i)))
	}
}

func (h *rowHash) null() { h.byte('n') }

func (h *rowHash) time(t time.Time) {
	y, m, d := t.Date()
	h.int('d', int64(y)*10000+int64(m)*100+int64(d))
}

func (h *rowHash) cents(f float64) { h.int('c', int64(math.Round(f*100))) }

// oracleValue hashes one value of an oracle row.
func (h *rowHash) oracleValue(v any) {
	switch v := v.(type) {
	case nil:
		h.null()
	case int64:
		h.int('i', v)
	case decimal:
		h.int('c', int64(v))
	case string:
		h.str('s', v)
	case date:
		t, err := time.Parse("2006-01-02", string(v))
		if err != nil {
			panic("perfbench: malformed generated date " + string(v))
		}
		h.time(t)
	default:
		panic("perfbench: unsupported oracle value")
	}
}

// atomValue hashes one value as a remoteclient or facade result set
// delivers it.
func (h *rowHash) atomValue(v xdm.Atomic) {
	switch v := v.(type) {
	case nil:
		h.null()
	case xdm.Integer:
		h.int('i', int64(v))
	case xdm.Decimal:
		h.cents(float64(v))
	case xdm.Double:
		h.cents(float64(v))
	case xdm.Date:
		h.time(v.T)
	case xdm.String:
		h.str('s', string(v))
	default:
		h.str('s', v.Lexical())
	}
}

// driverValue hashes one value as database/sql scans it into an any.
func (h *rowHash) driverValue(v any) {
	switch v := v.(type) {
	case nil:
		h.null()
	case int64:
		h.int('i', v)
	case float64:
		h.cents(v)
	case time.Time:
		h.time(v)
	case string:
		h.str('s', v)
	case []byte:
		h.str('s', string(v))
	default:
		h.str('?', "")
	}
}

func digestRows(rows [][]any) digest {
	var d digest
	for _, r := range rows {
		h := fnvOffset
		for _, v := range r {
			h.oracleValue(v)
		}
		d.add(uint64(h))
	}
	return d
}

func nullable(s string) any {
	if s == "" {
		return nil
	}
	return s
}

func nullableDate(s string) any {
	if s == "" {
		return nil
	}
	return date(s)
}

func (o order) totalValue() any {
	if o.totalNull {
		return nil
	}
	return decimal(o.total)
}

// oracle answers statements over one dataset, with the indexes the
// reporting statements need precomputed.
type oracle struct {
	d        *dataset
	byID     map[int64]customer
	ordersOf map[int64][]order
}

func newOracle(d *dataset) *oracle {
	o := &oracle{d: d, byID: map[int64]customer{}, ordersOf: map[int64][]order{}}
	for _, c := range d.customers {
		o.byID[c.id] = c
	}
	for _, ord := range d.orders {
		o.ordersOf[ord.cust] = append(o.ordersOf[ord.cust], ord)
	}
	return o
}

// --- reporting ---

// browseMeta is the CUSTOMERS table as catalog.Demo() declares it.
var browseMeta = [][]any{
	{"CUSTOMERID", "INTEGER", int64(0)},
	{"CUSTOMERNAME", "VARCHAR", int64(1)},
	{"CITY", "VARCHAR", int64(1)},
	{"SIGNUPDATE", "DATE", int64(1)},
}

func metaDigest(m *catalog.TableMeta) digest {
	var rows [][]any
	if m != nil && m.Function != nil {
		for _, c := range m.Function.Columns {
			n := int64(0)
			if c.Nullable {
				n = 1
			}
			rows = append(rows, []any{c.Name, c.Type.String(), n})
		}
	}
	return digestRows(rows)
}

// point: SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?
func (o *oracle) point(id int64) [][]any {
	c, ok := o.byID[id]
	if !ok {
		return nil
	}
	return [][]any{{nullable(c.city)}}
}

// report: cities with more than one order, their order count and revenue.
func (o *oracle) report() [][]any {
	type agg struct {
		n       int64
		sum     int64
		nonNull bool
	}
	by := map[string]*agg{}
	for _, ord := range o.d.orders {
		c, ok := o.byID[ord.cust]
		if !ok || c.city == "" {
			continue
		}
		a := by[c.city]
		if a == nil {
			a = &agg{}
			by[c.city] = a
		}
		a.n++
		if !ord.totalNull {
			a.sum += ord.total
			a.nonNull = true
		}
	}
	var rows [][]any
	for city, a := range by {
		if a.n <= 1 {
			continue
		}
		var rev any
		if a.nonNull {
			rev = decimal(a.sum)
		}
		rows = append(rows, []any{city, a.n, rev})
	}
	return rows
}

// drill: customers below the bound with no orders at all (NOT EXISTS).
func (o *oracle) drill(bound int64) [][]any {
	var rows [][]any
	for _, c := range o.d.customers {
		if c.id < bound && len(o.ordersOf[c.id]) == 0 {
			rows = append(rows, []any{c.id, c.name})
		}
	}
	return rows
}

// export: every customer row.
func (o *oracle) export() [][]any {
	rows := make([][]any, 0, len(o.d.customers))
	for _, c := range o.d.customers {
		rows = append(rows, []any{c.id, c.name, nullable(c.city), nullableDate(c.signup)})
	}
	return rows
}

// --- adhoc templates (see adhocTemplates for the SQL) ---

func (o *oracle) wildcard(cust, afterOrder int64) [][]any {
	var rows [][]any
	for _, ord := range o.ordersOf[cust] {
		if ord.id > afterOrder {
			rows = append(rows, []any{ord.id, ord.cust, date(ord.date), ord.status, ord.totalValue()})
		}
	}
	return rows
}

// filter: CITY = lit OR SIGNUPDATE IS NULL under three-valued logic — a
// NULL city makes the first disjunct unknown, so only a NULL signup date
// admits such a row.
func (o *oracle) filter(lo, hi int64, city string) [][]any {
	var rows [][]any
	for _, c := range o.d.customers {
		if c.id >= lo && c.id <= hi && ((c.city != "" && c.city == city) || c.signup == "") {
			rows = append(rows, []any{c.id, c.name, nullable(c.city)})
		}
	}
	return rows
}

func (o *oracle) functions(fallback string, from int64) [][]any {
	var rows [][]any
	for _, c := range o.d.customers {
		if c.id < from {
			continue
		}
		var length any
		city := any(fallback)
		if c.city != "" {
			length = int64(utf8.RuneCountInString(c.city))
			city = c.city
		}
		rows = append(rows, []any{c.id, strings.ToUpper(c.name), length, city})
	}
	return rows
}

func (o *oracle) innerJoin(minTotal, below int64) [][]any {
	var rows [][]any
	for _, ord := range o.d.orders {
		c, ok := o.byID[ord.cust]
		if ok && !ord.totalNull && ord.total > minTotal && c.id < below {
			rows = append(rows, []any{c.name, ord.id, decimal(ord.total)})
		}
	}
	return rows
}

// outerJoin: the extra ON predicate filters payments before the join, so
// customers whose payments all fail it still appear, NULL-extended.
func (o *oracle) outerJoin(minPayment, lo, hi int64) [][]any {
	var rows [][]any
	for _, c := range o.d.customers {
		if c.id < lo || c.id > hi {
			continue
		}
		matched := false
		for _, p := range o.d.payments {
			if p.cust == c.id && p.amount > minPayment {
				rows = append(rows, []any{c.id, nullable(c.city), p.id, decimal(p.amount)})
				matched = true
			}
		}
		if !matched {
			rows = append(rows, []any{c.id, nullable(c.city), nil, nil})
		}
	}
	return rows
}

// groupBy: COUNT(*) counts rows, SUM and MAX skip NULL totals and are NULL
// over a group with none.
func (o *oracle) groupBy(lo, hi, minCount int64) [][]any {
	type agg struct {
		n, sum, max int64
		nonNull     bool
	}
	by := map[string]*agg{}
	for _, ord := range o.d.orders {
		if ord.cust < lo || ord.cust > hi {
			continue
		}
		a := by[ord.status]
		if a == nil {
			a = &agg{}
			by[ord.status] = a
		}
		a.n++
		if !ord.totalNull {
			a.sum += ord.total
			if !a.nonNull || ord.total > a.max {
				a.max = ord.total
			}
			a.nonNull = true
		}
	}
	var rows [][]any
	for status, a := range by {
		if a.n <= minCount {
			continue
		}
		var sum, max any
		if a.nonNull {
			sum, max = decimal(a.sum), decimal(a.max)
		}
		rows = append(rows, []any{status, a.n, sum, max})
	}
	return rows
}

func (o *oracle) exists(minTotal int64) [][]any {
	var rows [][]any
	for _, c := range o.d.customers {
		for _, ord := range o.ordersOf[c.id] {
			if !ord.totalNull && ord.total > minTotal {
				rows = append(rows, []any{c.id, c.name})
				break
			}
		}
	}
	return rows
}
