package sqlparser

import (
	"strings"

	"repro/internal/qfront"
)

// Parse parses a SQL-92 SELECT statement (stage one of the translation).
// It returns a typed AST or a ParseError describing the first syntax error.
func Parse(src string) (*qfront.SelectStmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return ParseTokens(toks)
}

// ParseTokens parses an already-lexed token stream (as produced by Lex).
// Splitting the two phases lets callers observe lexing and parsing as
// separate pipeline stages without scanning the source twice.
func ParseTokens(toks []Token) (*qfront.SelectStmt, error) {
	if len(toks) == 0 || toks[len(toks)-1].Type != TokEOF {
		return nil, errAt(Pos{Line: 1, Col: 1}, "token stream does not end in EOF")
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().IsOp(";") {
		p.advance()
	}
	if p.peek().Type != TokEOF {
		return nil, errAt(p.peek().Pos, "unexpected %s after end of statement", p.peek())
	}
	stmt.ParamCount = p.paramCount
	return stmt, nil
}

type parser struct {
	toks       []Token
	pos        int
	paramCount int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+n]
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if t.Type != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(keyword string) bool {
	if p.peek().Is(keyword) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	if p.peek().IsOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(keyword string) error {
	if !p.accept(keyword) {
		return errAt(p.peek().Pos, "expected %s, found %s", keyword, p.peek())
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return errAt(p.peek().Pos, "expected %q, found %s", op, p.peek())
	}
	return nil
}

// identifier-ish token: a plain or delimited identifier, or a keyword that
// is allowed in identifier position (function-name keywords).
func (p *parser) acceptIdent() (string, bool) {
	t := p.peek()
	switch t.Type {
	case TokIdent, TokQuotedIdent:
		p.advance()
		return t.Text, true
	case TokKeyword:
		if functionKeywords[t.Text] {
			p.advance()
			return t.Text, true
		}
	}
	return "", false
}

func (p *parser) expectIdent(what string) (string, error) {
	if name, ok := p.acceptIdent(); ok {
		return name, nil
	}
	return "", errAt(p.peek().Pos, "expected %s, found %s", what, p.peek())
}

// acceptAliasIdent accepts only plain or delimited identifiers — never
// keywords — for use in implicit-alias position, where accepting keyword
// spellings like LEFT would swallow join syntax ("A LEFT JOIN B").
func (p *parser) acceptAliasIdent() (string, bool) {
	t := p.peek()
	if t.Type == TokIdent || t.Type == TokQuotedIdent {
		p.advance()
		return t.Text, true
	}
	return "", false
}

// parseSelectStmt parses a query expression with optional ORDER BY.
func (p *parser) parseSelectStmt() (*qfront.SelectStmt, error) {
	start := p.peek().Pos
	body, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	stmt := &qfront.SelectStmt{Pos: start, Body: body, Limit: -1}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			item, err := p.parseOrderItem()
			if err != nil {
				return nil, err
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.peek().Is("FETCH") {
		n, err := p.parseFetchFirst()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
	}
	return stmt, nil
}

// parseFetchFirst parses FETCH FIRST|NEXT [n] ROW|ROWS ONLY (n defaults
// to 1, per SQL:2008).
func (p *parser) parseFetchFirst() (int, error) {
	p.advance() // FETCH
	if !p.accept("FIRST") && !p.accept("NEXT") {
		return 0, errAt(p.peek().Pos, "expected FIRST or NEXT after FETCH, found %s", p.peek())
	}
	n := 1
	if p.peek().Type == TokInteger {
		n = atoiSafe(p.advance().Text)
	}
	if !p.accept("ROW") && !p.accept("ROWS") {
		return 0, errAt(p.peek().Pos, "expected ROW or ROWS, found %s", p.peek())
	}
	if err := p.expect("ONLY"); err != nil {
		return 0, err
	}
	return n, nil
}

func (p *parser) parseOrderItem() (qfront.OrderItem, error) {
	start := p.peek().Pos
	e, err := p.parseExpr()
	if err != nil {
		return qfront.OrderItem{}, err
	}
	item := qfront.OrderItem{Pos: start, Expr: e}
	if p.accept("DESC") {
		item.Desc = true
	} else {
		p.accept("ASC")
	}
	return item, nil
}

// parseQueryExpr handles UNION/EXCEPT (left-associative, lowest precedence).
func (p *parser) parseQueryExpr() (qfront.QueryExpr, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op qfront.SetOpType
		switch {
		case p.peek().Is("UNION"):
			op = qfront.SetUnion
		case p.peek().Is("EXCEPT"):
			op = qfront.SetExcept
		default:
			return left, nil
		}
		pos := p.advance().Pos
		all := p.accept("ALL")
		if !all {
			p.accept("DISTINCT")
		}
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &qfront.SetOpExpr{Pos: pos, Op: op, All: all, Left: left, Right: right}
	}
}

// parseQueryTerm handles INTERSECT (binds tighter than UNION per SQL-92).
func (p *parser) parseQueryTerm() (qfront.QueryExpr, error) {
	left, err := p.parseQueryPrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("INTERSECT") {
		pos := p.advance().Pos
		all := p.accept("ALL")
		if !all {
			p.accept("DISTINCT")
		}
		right, err := p.parseQueryPrimary()
		if err != nil {
			return nil, err
		}
		left = &qfront.SetOpExpr{Pos: pos, Op: qfront.SetIntersect, All: all, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseQueryPrimary() (qfront.QueryExpr, error) {
	if p.peek().IsOp("(") {
		p.advance()
		inner, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseQuerySpec()
}

// parseQuerySpec parses one SELECT block.
func (p *parser) parseQuerySpec() (*qfront.QuerySpec, error) {
	start := p.peek().Pos
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	q := &qfront.QuerySpec{Pos: start}
	if p.accept("DISTINCT") {
		q.Distinct = true
	} else {
		p.accept("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Items = append(q.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.accept("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			q.From = append(q.From, ref)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.accept("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.accept("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Having = e
	}
	return q, nil
}

func (p *parser) parseSelectItem() (qfront.SelectItem, error) {
	start := p.peek().Pos
	// Bare `*`.
	if p.peek().IsOp("*") {
		p.advance()
		return qfront.SelectItem{Pos: start, Wildcard: true}, nil
	}
	// Qualified wildcard `T.*` (also `S.T.*`): scan ahead for ident(.ident)*.*
	if p.peek().Type == TokIdent || p.peek().Type == TokQuotedIdent {
		n := 0
		for {
			if !(p.peekAt(n).Type == TokIdent || p.peekAt(n).Type == TokQuotedIdent) {
				n = -1
				break
			}
			if !p.peekAt(n + 1).IsOp(".") {
				n = -1
				break
			}
			if p.peekAt(n + 2).IsOp("*") {
				n += 2
				break
			}
			n += 2
		}
		if n > 0 {
			var quals []string
			for i := 0; i < n; i += 2 {
				quals = append(quals, p.advance().Text)
				p.advance() // the dot
			}
			p.advance() // the star
			return qfront.SelectItem{Pos: start, Wildcard: true, Qualifier: strings.Join(quals, ".")}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return qfront.SelectItem{}, err
	}
	item := qfront.SelectItem{Pos: start, Expr: e}
	if p.accept("AS") {
		name, err := p.expectIdent("column alias")
		if err != nil {
			return qfront.SelectItem{}, err
		}
		item.Alias = name
	} else if name, ok := p.acceptAliasIdent(); ok {
		item.Alias = name
	}
	return item, nil
}

// parseTableRef parses one FROM item: a chain of joins over table primaries.
func (p *parser) parseTableRef() (qfront.TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		join, ok, err := p.parseJoinTail(left)
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		left = join
	}
}

// parseJoinTail parses `[NATURAL] [join type] JOIN right [ON …|USING …]`
// if present.
func (p *parser) parseJoinTail(left qfront.TableRef) (qfront.TableRef, bool, error) {
	start := p.peek().Pos
	natural := false
	jt := qfront.JoinInner
	explicit := false
	save := p.pos
	if p.accept("NATURAL") {
		natural = true
	}
	switch {
	case p.accept("INNER"):
		jt, explicit = qfront.JoinInner, true
	case p.accept("LEFT"):
		p.accept("OUTER")
		jt, explicit = qfront.JoinLeftOuter, true
	case p.accept("RIGHT"):
		p.accept("OUTER")
		jt, explicit = qfront.JoinRightOuter, true
	case p.accept("FULL"):
		p.accept("OUTER")
		jt, explicit = qfront.JoinFullOuter, true
	case p.accept("CROSS"):
		jt, explicit = qfront.JoinCross, true
	}
	if !p.peek().Is("JOIN") {
		if natural || explicit {
			// LEFT/RIGHT may have been a function name; rewind.
			p.pos = save
		}
		return nil, false, nil
	}
	p.advance() // JOIN
	right, err := p.parseTablePrimary()
	if err != nil {
		return nil, false, err
	}
	j := &qfront.JoinExpr{Pos: start, Type: jt, Left: left, Right: right, Natural: natural}
	if jt == qfront.JoinCross {
		return j, true, nil
	}
	if natural {
		return j, true, nil
	}
	switch {
	case p.accept("ON"):
		cond, err := p.parseExpr()
		if err != nil {
			return nil, false, err
		}
		j.Cond = cond
	case p.accept("USING"):
		if err := p.expectOp("("); err != nil {
			return nil, false, err
		}
		for {
			name, err := p.expectIdent("column name")
			if err != nil {
				return nil, false, err
			}
			j.Using = append(j.Using, name)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, false, err
		}
	default:
		return nil, false, errAt(p.peek().Pos, "expected ON or USING after JOIN, found %s", p.peek())
	}
	return j, true, nil
}

// parseTablePrimary parses a base table, a derived table, or a
// parenthesized join.
func (p *parser) parseTablePrimary() (qfront.TableRef, error) {
	start := p.peek().Pos
	if p.peek().IsOp("(") {
		if p.peekAt(1).Is("SELECT") || p.peekAt(1).IsOp("(") && p.subqueryAhead() {
			p.advance() // (
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			d := &qfront.DerivedTable{Pos: start, Query: sub}
			p.accept("AS")
			name, err := p.expectIdent("derived table alias")
			if err != nil {
				return nil, errAt(start, "derived table requires an alias (SQL-92): %v", err)
			}
			d.Alias = name
			if p.peek().IsOp("(") {
				p.advance()
				for {
					col, err := p.expectIdent("derived column alias")
					if err != nil {
						return nil, err
					}
					d.ColumnAliases = append(d.ColumnAliases, col)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return d, nil
		}
		// Parenthesized join: ( A JOIN B ON ... ) [AS alias]
		p.advance() // (
		inner, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if j, ok := inner.(*qfront.JoinExpr); ok {
			if p.accept("AS") {
				name, err := p.expectIdent("join alias")
				if err != nil {
					return nil, err
				}
				j.Alias = name
			} else if name, ok := p.acceptAliasIdent(); ok {
				j.Alias = name
			}
			return j, nil
		}
		return inner, nil
	}
	// Base table: [catalog.][schema.]name [AS alias]
	first, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	parts := []string{first}
	for p.peek().IsOp(".") {
		p.advance()
		next, err := p.expectIdent("name after '.'")
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	t := &qfront.TableName{Pos: start}
	switch len(parts) {
	case 1:
		t.Name = parts[0]
	case 2:
		t.Schema, t.Name = parts[0], parts[1]
	case 3:
		t.Catalog, t.Schema, t.Name = parts[0], parts[1], parts[2]
	default:
		return nil, errAt(start, "table name has too many qualifiers: %s", strings.Join(parts, "."))
	}
	if p.accept("AS") {
		name, err := p.expectIdent("table alias")
		if err != nil {
			return nil, err
		}
		t.Alias = name
	} else if name, ok := p.acceptAliasIdent(); ok {
		t.Alias = name
	}
	return t, nil
}

// subqueryAhead peeks past nested '(' to see whether a SELECT keyword
// begins the parenthesized region, distinguishing ((SELECT …)) derived
// tables from parenthesized joins.
func (p *parser) subqueryAhead() bool {
	n := 1
	for p.peekAt(n).IsOp("(") {
		n++
	}
	return p.peekAt(n).Is("SELECT")
}
