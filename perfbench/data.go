package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// The benchmark generates its own rows for the catalog.Demo() schema
// (demo.Generate has a fixed generator, so it cannot follow the seed) and
// keeps them as plain Go values: the oracle computes expected results from
// these, never from anything the translator produced.

// A string field holding "" is SQL NULL.
type customer struct {
	id                 int64
	name, city, signup string
}

type order struct {
	id, cust     int64
	date, status string
	total        int64 // cents
	totalNull    bool
}

type payment struct {
	id, cust int64
	amount   int64 // cents
	date     string
}

type item struct {
	id, order int64
	product   string
	qty       int64
	price     int64 // cents
}

type dataset struct {
	customers []customer
	orders    []order
	payments  []payment
	items     []item
}

// sizes fixes a dataset's row counts; payments and items follow from them.
type sizes struct{ customers, orders int }

var (
	demoSizes   = sizes{customers: 50, orders: 120}
	exportSizes = sizes{customers: 20000, orders: 120}
)

var (
	firstNames = []string{"Joe", "Sue", "Ann", "Bob", "Eve", "Max", "Ida", "Ned", "Ora", "Pat", "Quinn", "Rex"}
	// Two suffixes carry the §4 text delimiters and an XML metacharacter, so
	// every workload exercises escaping on the result path.
	suffixes = []string{"Widget Stores", "Supermart", "Parts & Service", "Logistics", "Trading Co <EU>", "Holdings"}
	cities   = []string{"Springfield", "Riverton", "Lakeside", "Hillcrest", "Marble Falls", "Oak Grove", "Fairview"}
	statuses = []string{"OPEN", "SHIPPED", "CLOSED", "HOLD"}
	products = []string{"Widget", "Sprocket", "Gizmo", "Flange", "Gear"}
)

const firstCustomerID = 1000

// generate builds a dataset from the seed. The seed decides which rows
// carry which values, while the shape is fixed: the number of NULLs, of
// customers without orders or payments, and of rows per table do not
// depend on it, so every seed asks the program for the same amount of
// work and run-to-run differences are the program's, not the data's.
func generate(seed uint64, sz sizes) *dataset {
	r := rand.New(rand.NewPCG(seed, 0x70e7a11))
	date := func(years int) string {
		return fmt.Sprintf("%d-%02d-%02d", 2000+r.IntN(years), 1+r.IntN(12), 1+r.IntN(28))
	}
	// marked returns n flags, every k-th one set, in seeded order.
	marked := func(n, k int) []bool {
		out := make([]bool, n)
		for i := 0; i < n; i += k {
			out[i] = true
		}
		r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	d := &dataset{}
	nullCity, nullSignup := marked(sz.customers, 8), marked(sz.customers, 10)
	for i := 0; i < sz.customers; i++ {
		c := customer{id: int64(firstCustomerID + i)}
		c.name = firstNames[r.IntN(len(firstNames))] + " " + suffixes[r.IntN(len(suffixes))]
		if !nullCity[i] {
			c.city = cities[r.IntN(len(cities))]
		}
		if !nullSignup[i] {
			c.signup = date(6)
		}
		d.customers = append(d.customers, c)
	}
	// Orders and payments reference only the first demo-sized block of
	// customers. Zero payments and zero orders (the outer-join and NOT
	// EXISTS cases) each go to a fixed share of them.
	active := d.customers[:min(len(d.customers), demoSizes.customers)]
	pay := int64(1)
	counts := make([]int, len(active))
	for i := range counts {
		counts[i] = i % 4 // 0 to 3 payments
	}
	r.Shuffle(len(counts), func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
	for i, c := range active {
		for n := counts[i]; n > 0; n-- {
			d.payments = append(d.payments, payment{id: pay, cust: c.id, amount: 500 + r.Int64N(100000), date: date(3)})
			pay++
		}
	}
	noOrders := marked(len(active), 10)
	var buyers []int64
	for i, c := range active {
		if !noOrders[i] {
			buyers = append(buyers, c.id)
		}
	}
	r.Shuffle(len(buyers), func(i, j int) { buyers[i], buyers[j] = buyers[j], buyers[i] })
	nullTotal := marked(sz.orders, 15)
	for i := 0; i < sz.orders; i++ {
		o := order{id: int64(5000 + i), cust: buyers[i%len(buyers)], date: date(2), status: statuses[r.IntN(len(statuses))],
			total: 1000 + r.Int64N(500000), totalNull: nullTotal[i]}
		d.orders = append(d.orders, o)
		for j := 0; j < 1+i%3; j++ {
			d.items = append(d.items, item{id: o.id*100 + int64(j), order: o.id, product: products[r.IntN(len(products))],
				qty: 1 + r.Int64N(20), price: 100 + r.Int64N(20000)})
		}
	}
	return d
}

func cents(c int64) string { return fmt.Sprintf("%d.%02d", c/100, c%100) }

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// row builds one flat row element; empty values are SQL NULL (absent).
func row(name string, kv ...string) *xdm.Element {
	e := xdm.NewElement(name)
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] != "" {
			e.AddChild(xdm.NewTextElement(kv[i], kv[i+1]))
		}
	}
	return e
}

// register installs the dataset on an engine under the demo catalog's
// data service namespaces.
func (d *dataset) register(e *xqeval.Engine) {
	var cs, os, ps, is []*xdm.Element
	for _, c := range d.customers {
		cs = append(cs, row("CUSTOMERS", "CUSTOMERID", itoa(c.id), "CUSTOMERNAME", c.name, "CITY", c.city, "SIGNUPDATE", c.signup))
	}
	for _, o := range d.orders {
		total := cents(o.total)
		if o.totalNull {
			total = ""
		}
		os = append(os, row("PO_CUSTOMERS", "ORDERID", itoa(o.id), "CUSTOMERID", itoa(o.cust), "ORDERDATE", o.date, "STATUS", o.status, "TOTAL", total))
	}
	for _, p := range d.payments {
		ps = append(ps, row("PAYMENTS", "PAYMENTID", itoa(p.id), "CUSTID", itoa(p.cust), "PAYMENT", cents(p.amount), "PAYDATE", p.date))
	}
	for _, it := range d.items {
		is = append(is, row("PO_ITEMS", "ITEMID", itoa(it.id), "ORDERID", itoa(it.order), "PRODUCT", it.product,
			"QUANTITY", itoa(it.qty), "PRICE", cents(it.price)))
	}
	e.RegisterRows("ld:TestDataServices/CUSTOMERS", "CUSTOMERS", cs)
	e.RegisterRows("ld:TestDataServices/PO_CUSTOMERS", "PO_CUSTOMERS", os)
	e.RegisterRows("ld:TestDataServices/PAYMENTS", "PAYMENTS", ps)
	e.RegisterRows("ld:TestDataServices/PO_ITEMS", "PO_ITEMS", is)
}
