package main

import (
	"context"
	"database/sql"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	aqualogic "repro"
	"repro/internal/catalog"
	_ "repro/internal/driver"
	"repro/internal/remoteclient"
	"repro/internal/resultset"
	"repro/internal/server"
	"repro/internal/translator"
	"repro/internal/xqeval"
)

// stack is one built deployment under test: the platform over the
// generated rows, and the client lanes that drive it.
type stack struct {
	w      *workload
	seed   uint64
	oracle *oracle
	p      *aqualogic.Platform
	srv    *server.Server // nil on driver workloads
	lanes  []client
	db     *sql.DB
}

// client runs one statement end to end and reports what it observed.
type client interface {
	run(ctx context.Context, s stmt) outcome
	close()
}

type outcome struct {
	lat    time.Duration
	rows   int64
	ttfr   time.Duration // -1 for the metadata browse
	got    digest
	err    error
	traced bool
}

var driverNames atomic.Int64

// build generates the data and builds platform, server or driver and
// client lanes, then warms every cache by running the warm-up statements.
func build(w *workload, seed uint64) (*stack, error) {
	d := generate(seed, w.data)
	st := &stack{w: w, seed: seed, oracle: newOracle(d)}
	engine := xqeval.New()
	d.register(engine)
	st.p = aqualogic.New(catalog.Demo(), engine)
	if w.driver {
		name := fmt.Sprintf("perfbench-%d", driverNames.Add(1))
		st.p.RegisterDriver(name)
		db, err := sql.Open("aqualogic", name)
		if err != nil {
			return nil, err
		}
		db.SetMaxOpenConns(w.lanes)
		st.db = db
		for i := 0; i < w.lanes; i++ {
			st.lanes = append(st.lanes, &driverClient{db: db})
		}
	} else {
		st.srv = server.New(st.p, server.Config{})
		for i := 0; i < w.lanes; i++ {
			c, err := newRemoteClient(st.srv.Handler(), w.prepared)
			if err != nil {
				st.close()
				return nil, err
			}
			st.lanes = append(st.lanes, c)
		}
	}
	ctx := context.Background()
	for _, s := range w.warmup(st.oracle, seed) {
		for _, c := range st.lanes {
			if out := c.run(ctx, s); out.err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up %s: %w", s.class, out.err)
			}
		}
	}
	return st, nil
}

func (st *stack) close() {
	for _, c := range st.lanes {
		c.close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.db != nil {
		st.db.Close()
	}
}

// remoteClient is one remoteclient session over the loopback transport.
type remoteClient struct {
	c        *remoteclient.Client
	prepared map[string]*remoteclient.Stmt
}

func newRemoteClient(h http.Handler, prepare []string) (*remoteClient, error) {
	c, err := remoteclient.Loopback(h)
	if err != nil {
		return nil, err
	}
	rc := &remoteClient{c: c, prepared: map[string]*remoteclient.Stmt{}}
	if err := rc.prepare(prepare); err != nil {
		c.Close()
		return nil, err
	}
	return rc, nil
}

// prepare pins statements in the session; executions of the same text
// then use them.
func (rc *remoteClient) prepare(stmts []string) error {
	for _, q := range stmts {
		s, err := rc.c.Prepare(context.Background(), q, translator.ModeText)
		if err != nil {
			return fmt.Errorf("prepare: %w", err)
		}
		rc.prepared[q] = s
	}
	return nil
}

func (rc *remoteClient) close() { rc.c.Close() }

func (rc *remoteClient) run(ctx context.Context, s stmt) outcome {
	if s.sql == "" {
		t0 := time.Now()
		meta, err := rc.c.LookupContext(ctx, catalog.TableRef{Table: "CUSTOMERS"})
		return outcome{lat: time.Since(t0), ttfr: -1, got: metaDigest(meta), err: err}
	}
	t0 := time.Now()
	var rows *resultset.Rows
	var err error
	if p := rc.prepared[s.sql]; p != nil {
		rows, err = p.Execute(ctx, s.args...)
	} else {
		rows, err = rc.c.Query(ctx, s.sql, s.args...)
	}
	if err != nil {
		return outcome{lat: time.Since(t0), ttfr: -1, err: err}
	}
	return drainRows(t0, rows)
}

// drainRows reads a result set to the end, hashing each row.
func drainRows(t0 time.Time, rows *resultset.Rows) outcome {
	out := outcome{ttfr: -1}
	n := len(rows.Columns())
	for rows.Next() {
		if out.ttfr < 0 {
			out.ttfr = time.Since(t0)
		}
		h := fnvOffset
		for i := 0; i < n; i++ {
			v, err := rows.Value(i)
			if err != nil {
				rows.Close()
				out.err = err
				return out
			}
			h.atomValue(v)
		}
		out.got.add(uint64(h))
		out.rows++
	}
	if out.ttfr < 0 {
		out.ttfr = time.Since(t0) // an empty result: time until its end was known
	}
	out.err = rows.Err()
	rows.Close()
	out.lat = time.Since(t0)
	return out
}

// driverClient issues statements through database/sql. With a tracer it
// records spans around db.Query and the rows.Next loop.
type driverClient struct {
	db *sql.DB
	t  *tracer
}

func (dc *driverClient) close() {}

func (dc *driverClient) run(ctx context.Context, s stmt) outcome {
	t0 := time.Now()
	q := dc.t.begin("driver.query")
	rows, err := dc.db.QueryContext(ctx, s.sql, s.args...)
	dc.t.end(q)
	if err != nil {
		return outcome{lat: time.Since(t0), ttfr: -1, err: err}
	}
	n := dc.t.begin("driver.next")
	out := scanRows(t0, rows)
	dc.t.end(n)
	out.lat = time.Since(t0)
	return out
}

func scanRows(t0 time.Time, rows *sql.Rows) outcome {
	defer rows.Close()
	out := outcome{ttfr: -1}
	cols, err := rows.Columns()
	if err != nil {
		out.err = err
		return out
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if out.ttfr < 0 {
			out.ttfr = time.Since(t0)
		}
		if err := rows.Scan(ptrs...); err != nil {
			out.err = err
			return out
		}
		h := fnvOffset
		for _, v := range vals {
			h.driverValue(v)
		}
		out.got.add(uint64(h))
		out.rows++
	}
	if out.ttfr < 0 {
		out.ttfr = time.Since(t0) // an empty result: time until its end was known
	}
	out.err = rows.Err()
	return out
}
