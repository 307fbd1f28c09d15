package main

import (
	"fmt"
	"math/rand/v2"
)

// stmt is one client operation with its expected result.
type stmt struct {
	class string // op class, used for per-class latency
	sql   string // empty for the metadata browse
	args  []any
	want  digest
}

// workload is one closed-loop traffic mix, run in one process. Its seed
// drives both the generated rows and the statement and parameter stream.
//
// Every workload has one client lane. The benchmark machine has two cores
// and each statement already runs on two goroutines, the client and the
// evaluator's producer, so one lane keeps both cores busy. A second lane
// oversubscribes them: its latencies then measure scheduling and
// collector contention, and on a two-core machine shared with other
// tenants its run-to-run spread was five times that of one lane (ops_per_s
// interquartile spread 0.19 against 0.04 over the same seeds).
type workload struct {
	name, why string
	data      sizes
	lanes     int
	// driver lanes use database/sql over internal/driver; the others use
	// remoteclient over the loopback transport of server.Handler().
	driver bool
	// prepared statements each remoteclient lane prepares at set-up.
	prepared []string
	// tailPct is the percentile tail_ms reports, fixed per workload so a
	// change in speed never changes which percentile is compared. It
	// leaves well over ten samples beyond it in every run. The 99th
	// percentile, printed alongside, moved by a third between runs on a
	// shared two-core machine, with other tenants' interference, and so
	// cannot gate a change.
	tailPct float64
	// stream returns lane's statement source; warmup lists the statements
	// that fill the caches during set-up.
	stream func(o *oracle, seed uint64, lane int) func() stmt
	warmup func(o *oracle, seed uint64) []stmt
}

var workloads = []*workload{
	{
		name: "reporting",
		why:  "the paper's reporting client over the wire: cached prepared and literal statements, so evaluation and per-request server and wire overhead dominate",
		data: demoSizes, lanes: 1, tailPct: 90,
		prepared: []string{pointSQL, drillSQL},
		stream:   reportingStream,
		warmup: func(o *oracle, seed uint64) []stmt {
			var out []stmt
			next := reportingStream(o, seed, -1)
			for len(out) < 80 {
				out = append(out, next())
			}
			return out
		},
	},
	{
		name: "adhoc",
		why:  "literal-inlined SQL over database/sql from 7 templates: a working set far beyond the 256-entry compile cache, so nearly every statement parses, translates and plans",
		data: demoSizes, lanes: 1, driver: true, tailPct: 90,
		stream: func(o *oracle, seed uint64, lane int) func() stmt {
			pool := adhocPool(o, seed, uint64(lane), adhocPoolSize)
			i := 0
			return func() stmt {
				s := pool[i%len(pool)]
				i++
				return s
			}
		},
		warmup: func(o *oracle, seed uint64) []stmt { return adhocPool(o, seed, 1<<32, 300) },
	},
	{
		name: "export",
		why:  "one cached statement streaming 20,000 rows in the paper's text mode over the wire: per-row evaluation, wire encoding and client decoding dominate",
		data: exportSizes, lanes: 1, tailPct: 75,
		stream: func(o *oracle, seed uint64, lane int) func() stmt {
			s := stmt{class: "export", sql: exportSQL, want: digestRows(o.export())}
			return func() stmt { return s }
		},
		warmup: func(o *oracle, seed uint64) []stmt {
			return []stmt{{class: "export", sql: exportSQL, want: digestRows(o.export())}}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	pointSQL  = "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?"
	reportSQL = "SELECT C.CITY, COUNT(*) AS ORDERS, SUM(O.TOTAL) AS REVENUE " +
		"FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID " +
		"WHERE C.CITY IS NOT NULL GROUP BY C.CITY HAVING COUNT(*) > 1 ORDER BY 3 DESC"
	drillSQL = "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS C " +
		"WHERE NOT EXISTS (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID) " +
		"AND CUSTOMERID < ? ORDER BY CUSTOMERID"
	exportSQL = "SELECT CUSTOMERID, CUSTOMERNAME, CITY, SIGNUPDATE FROM CUSTOMERS"
)

// The reporting mix, per round of 20 ops. It is weighted rather than
// uniform so the median and the 99th percentile each fall well inside one
// class (point and drill) instead of on the boundary between a fast and a
// slow class, where they would jump from run to run.
var reportingMix = []int{2, 12, 3, 3} // browse, point, report, drill

// deck deals the numbers 0..len(counts)-1, number i counts[i] times a
// round, each round in seeded random order. Any stretch of the stream then
// holds every class and parameter in close to its exact share, so the mix
// of cheap and costly statements, and with it the work a run asks for,
// does not wander from run to run as independent draws would.
type deck struct {
	r     *rand.Rand
	cards []int
	pos   int
}

func newDeck(r *rand.Rand, counts []int) *deck {
	d := &deck{r: r}
	for i, c := range counts {
		for ; c > 0; c-- {
			d.cards = append(d.cards, i)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// reportingStream deals lane's ops from the mix; lane -1 is the warm-up.
func reportingStream(o *oracle, seed uint64, lane int) func() stmt {
	r := rand.New(rand.NewPCG(seed, uint64(lane)+0x5eed))
	n := len(o.d.customers)
	// Every op is built up front, so dealing one in the timed loop neither
	// computes an oracle answer nor allocates.
	browse := stmt{class: "browse", want: digestRows(browseMeta)}
	report := stmt{class: "report", sql: reportSQL, want: digestRows(o.report())}
	points, drills := make([]stmt, n), make([]stmt, n+1)
	for k := range drills {
		id := int64(firstCustomerID + k)
		if k < n {
			points[k] = stmt{class: "point", sql: pointSQL, args: []any{id}, want: digestRows(o.point(id))}
		}
		drills[k] = stmt{class: "drill", sql: drillSQL, args: []any{id}, want: digestRows(o.drill(id))}
	}
	classes, pointIDs, drillBounds := newDeck(r, reportingMix), newDeck(r, ones(n)), newDeck(r, ones(n+1))
	return func() stmt {
		switch classes.next() {
		case 0:
			return browse
		case 1:
			return points[pointIDs.next()]
		case 2:
			return report
		default:
			return drills[drillBounds.next()]
		}
	}
}

// adhocPoolSize bounds the precomputed adhoc stream. A 30-second run
// issues about 11,000 statements at 360 a second, so the stream wraps
// around; statements still repeat only every adhocPoolSize draws, far
// beyond the compile cache's 256 entries, so they keep missing it.
const adhocPoolSize = 8192

// adhocTemplates span the paper's translation classes. Each has thousands
// of literal combinations, so the distinct-statement space dwarfs the
// compile cache.
var adhocTemplates = []func(o *oracle, r *rand.Rand) stmt{
	func(o *oracle, r *rand.Rand) stmt {
		cust, after := int64(firstCustomerID+r.IntN(50)), int64(5000+r.IntN(120))
		return stmt{class: "wildcard", sql: fmt.Sprintf("SELECT * FROM PO_CUSTOMERS WHERE CUSTOMERID = %d AND ORDERID > %d", cust, after),
			want: digestRows(o.wildcard(cust, after))}
	},
	func(o *oracle, r *rand.Rand) stmt {
		lo := int64(firstCustomerID + r.IntN(50))
		hi := lo + int64(r.IntN(20))
		city := cities[r.IntN(len(cities))]
		return stmt{class: "filter", sql: fmt.Sprintf("SELECT CUSTOMERID, CUSTOMERNAME, CITY FROM CUSTOMERS "+
			"WHERE CUSTOMERID BETWEEN %d AND %d AND (CITY = '%s' OR SIGNUPDATE IS NULL)", lo, hi, city),
			want: digestRows(o.filter(lo, hi, city))}
	},
	func(o *oracle, r *rand.Rand) stmt {
		fallback, from := fmt.Sprintf("none%d", r.IntN(1000)), int64(firstCustomerID+r.IntN(50))
		return stmt{class: "functions", sql: fmt.Sprintf("SELECT CUSTOMERID, UPPER(CUSTOMERNAME), CHAR_LENGTH(CITY), "+
			"COALESCE(CITY, '%s') FROM CUSTOMERS WHERE CUSTOMERID >= %d", fallback, from),
			want: digestRows(o.functions(fallback, from))}
	},
	func(o *oracle, r *rand.Rand) stmt {
		minTotal, below := 1000+r.Int64N(500000), int64(firstCustomerID+r.IntN(51))
		return stmt{class: "inner_join", sql: fmt.Sprintf("SELECT C.CUSTOMERNAME, O.ORDERID, O.TOTAL FROM CUSTOMERS C "+
			"INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE O.TOTAL > %s AND C.CUSTOMERID < %d", cents(minTotal), below),
			want: digestRows(o.innerJoin(minTotal, below))}
	},
	func(o *oracle, r *rand.Rand) stmt {
		minPayment := 100 * (5 + r.Int64N(1000))
		lo := int64(firstCustomerID + r.IntN(50))
		hi := lo + int64(r.IntN(10))
		return stmt{class: "outer_join", sql: fmt.Sprintf("SELECT C.CUSTOMERID, C.CITY, P.PAYMENTID, P.PAYMENT FROM CUSTOMERS C "+
			"LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID AND P.PAYMENT > %d "+
			"WHERE C.CUSTOMERID BETWEEN %d AND %d", minPayment/100, lo, hi),
			want: digestRows(o.outerJoin(minPayment, lo, hi))}
	},
	func(o *oracle, r *rand.Rand) stmt {
		lo := int64(firstCustomerID + r.IntN(50))
		hi, minCount := lo+int64(r.IntN(50)), int64(r.IntN(4))
		return stmt{class: "group_by", sql: fmt.Sprintf("SELECT O.STATUS, COUNT(*) AS N, SUM(O.TOTAL) AS T, MAX(O.TOTAL) AS M "+
			"FROM PO_CUSTOMERS O WHERE O.CUSTOMERID BETWEEN %d AND %d GROUP BY O.STATUS HAVING COUNT(*) > %d", lo, hi, minCount),
			want: digestRows(o.groupBy(lo, hi, minCount))}
	},
	func(o *oracle, r *rand.Rand) stmt {
		minTotal := 100 * (10 + r.Int64N(5000))
		return stmt{class: "subquery", sql: fmt.Sprintf("SELECT C.CUSTOMERID, C.CUSTOMERNAME FROM CUSTOMERS C WHERE EXISTS "+
			"(SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND O.TOTAL > %d)", minTotal/100),
			want: digestRows(o.exists(minTotal))}
	},
}

// adhocPool deals n statements evenly over the templates, with random
// literals.
func adhocPool(o *oracle, seed, stream uint64, n int) []stmt {
	r := rand.New(rand.NewPCG(seed, stream+0xad40c))
	templates := newDeck(r, ones(len(adhocTemplates)))
	out := make([]stmt, n)
	for i := range out {
		out[i] = adhocTemplates[templates.next()](o, r)
	}
	return out
}
