package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a parsed SELECT query.
type SelectStmt struct {
	Items     []SelectItem // empty means SELECT *
	Star      bool
	From      string
	FromAlias string
	Joins     []JoinClause
	Where     Expr
	GroupBy   []Expr
	Having    Expr
	OrderBy   []OrderItem
	Limit     int // -1 = no limit
	Offset    int
}

// JoinClause is one [INNER|LEFT] JOIN table [alias] ON cond.
type JoinClause struct {
	Table string
	Alias string
	Left  bool // LEFT OUTER semantics
	On    Expr
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name   string
	Schema Schema
}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Name string
	Cols []string
	Rows [][]any // literal values; nil element = NULL
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// DeleteStmt is DELETE FROM name [WHERE expr].
type DeleteStmt struct {
	Name  string
	Where Expr
}

// ExplainStmt is EXPLAIN [ANALYZE] <statement>. Plain EXPLAIN returns the
// predicted plan shape without executing; ANALYZE executes the inner
// statement and returns the measured operator tree. SQL is the inner
// statement's text as written, the key its plan-cache entry would have.
type ExplainStmt struct {
	Analyze bool
	Stmt    Statement
	SQL     string
}

func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}
func (*CreateTableStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*DropTableStmt) stmt()   {}
func (*DeleteStmt) stmt()      {}

// Parse parses one SQL statement.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{src: sql, toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("engine: unexpected trailing input %q", p.peek().text)
	}
	return st, nil
}

// ParseExpr parses a standalone scalar expression (used by the UDF layer
// and the harmonization rules).
func ParseExpr(s string) (Expr, error) {
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("engine: unexpected trailing input %q", p.peek().text)
	}
	return e, nil
}

type parser struct {
	src  string // the statement text (empty for a standalone expression)
	toks []token
	pos  int
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(s int) { p.pos = s }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("engine: expected %s, got %q", kw, t.text)
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	t := p.next()
	if t.kind != tokOp || t.text != op {
		return fmt.Errorf("engine: expected %q, got %q", op, t.text)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	if p.peek().kind == tokOp && p.peek().text == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("engine: expected identifier, got %q", t.text)
	}
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("engine: expected statement, got %q", t.text)
	}
	switch t.text {
	case "EXPLAIN":
		p.next()
		st := &ExplainStmt{}
		if p.acceptKeyword("ANALYZE") {
			st.Analyze = true
		}
		if p.peek().text == "EXPLAIN" {
			return nil, fmt.Errorf("engine: EXPLAIN cannot be nested")
		}
		st.SQL = p.src[p.peek().pos:]
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		st.Stmt = inner
		return st, nil
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "DROP":
		return p.parseDrop()
	case "DELETE":
		return p.parseDelete()
	}
	return nil, fmt.Errorf("engine: unsupported statement %q", t.text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	if p.acceptOp("*") {
		st.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				a, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.peek().kind == tokIdent {
				item.Alias = p.next().text
			}
			st.Items = append(st.Items, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.From = name
	if p.peek().kind == tokIdent {
		st.FromAlias = p.next().text
	}
	for {
		left := false
		if p.acceptKeyword("LEFT") {
			left = true
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		jt, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		jc := JoinClause{Table: jt, Left: left}
		if p.peek().kind == tokIdent {
			jc.Alias = p.next().text
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		jc.On = on
		st.Joins = append(st.Joins, jc)
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				it.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, it)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLit()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLit()
		if err != nil {
			return nil, err
		}
		st.Offset = n
	}
	return st, nil
}

func (p *parser) parseIntLit() (int, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("engine: expected integer, got %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("engine: bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var schema Schema
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		tt := p.next()
		if tt.kind != tokIdent && tt.kind != tokKeyword {
			return nil, fmt.Errorf("engine: expected type name, got %q", tt.text)
		}
		typ, err := ParseType(strings.ToUpper(tt.text))
		if err != nil {
			return nil, err
		}
		// Swallow optional precision, e.g. VARCHAR(255).
		if p.acceptOp("(") {
			for !p.acceptOp(")") {
				p.next()
			}
		}
		schema = append(schema, ColumnDef{Name: col, Type: typ})
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		break
	}
	return &CreateTableStmt{Name: name, Schema: schema}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Name: name}
	if p.acceptOp("(") {
		for {
			c, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []any
		for {
			v, err := p.parseLiteralValue()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return st, nil
}

// parseLiteralValue parses a literal (possibly signed) for VALUES lists.
func (p *parser) parseLiteralValue() (any, error) {
	neg := false
	if p.acceptOp("-") {
		neg = true
	}
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, err
			}
			if neg {
				f = -f
			}
			return f, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		if neg {
			n = -n
		}
		return n, nil
	case tokString:
		if neg {
			return nil, fmt.Errorf("engine: cannot negate a string literal")
		}
		return t.text, nil
	case tokKeyword:
		if neg {
			return nil, fmt.Errorf("engine: cannot negate %s", t.text)
		}
		switch t.text {
		case "NULL":
			return nil, nil
		case "TRUE":
			return true, nil
		case "FALSE":
			return false, nil
		}
	}
	return nil, fmt.Errorf("engine: expected literal, got %q", t.text)
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &DropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Name: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// --- Expression parsing (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Not: not}, nil
	}
	// [NOT] IN (...) / [NOT] BETWEEN a AND b
	not := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" {
		s := p.save()
		p.next()
		if p.peek().kind == tokKeyword && (p.peek().text == "IN" || p.peek().text == "BETWEEN") {
			not = true
		} else {
			p.restore(s)
		}
	}
	if p.acceptKeyword("IN") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{X: l, Not: not}
		for {
			v, err := p.parseLiteralValue()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, &Lit{Val: v, IsNull: v == nil})
			if p.acceptOp(",") {
				continue
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			break
		}
		return in, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		between := Expr(&Binary{Op: "AND",
			L: &Binary{Op: ">=", L: l, R: lo},
			R: &Binary{Op: "<=", L: l, R: hi}})
		if not {
			between = &Unary{Op: "NOT", X: between}
		}
		return between, nil
	}
	if p.peek().kind == tokOp {
		switch p.peek().text {
		case "=", "<>", "<", "<=", ">", ">=":
			op := p.next().text
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("+"):
			op = "+"
		case p.acceptOp("-"):
			op = "-"
		case p.acceptOp("||"):
			op = "||"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("*"):
			op = "*"
		case p.acceptOp("/"):
			op = "/"
		case p.acceptOp("%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

var aggNames = map[string]bool{
	"sum": true, "count": true, "avg": true, "min": true, "max": true,
	"stddev_samp": true, "stddev": true, "var_samp": true, "variance": true,
	"corr": true, "median": true, "quantile": true,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, err
			}
			return &Lit{Val: f}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return &Lit{Val: n}, nil
	case tokString:
		return &Lit{Val: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			return &Lit{IsNull: true}, nil
		case "TRUE":
			return &Lit{Val: true}, nil
		case "FALSE":
			return &Lit{Val: false}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			tt := p.next()
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			_ = tt // only numeric casts supported
			return &Call{Name: "cast_double", Args: []Expr{x}}, nil
		}
		return nil, fmt.Errorf("engine: unexpected keyword %q in expression", t.text)
	case tokIdent:
		// Function call?
		if p.peek().kind == tokOp && p.peek().text == "(" {
			p.next()
			name := strings.ToLower(t.text)
			if aggNames[name] {
				agg := &AggCall{Name: name}
				if p.acceptOp("*") {
					agg.Star = true
					if err := p.expectOp(")"); err != nil {
						return nil, err
					}
					return agg, nil
				}
				if p.acceptKeyword("DISTINCT") {
					agg.Distinct = true
				}
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					agg.Args = append(agg.Args, a)
					if p.acceptOp(",") {
						continue
					}
					if err := p.expectOp(")"); err != nil {
						return nil, err
					}
					break
				}
				return agg, nil
			}
			call := &Call{Name: name}
			if p.acceptOp(")") {
				return call, nil
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.acceptOp(",") {
					continue
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				break
			}
			return call, nil
		}
		// Qualified column reference: alias.column.
		if p.peek().kind == tokOp && p.peek().text == "." {
			save := p.save()
			p.next()
			if p.peek().kind == tokIdent {
				col := p.next().text
				return &ColRef{Name: t.text + "." + col}, nil
			}
			p.restore(save)
		}
		return &ColRef{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("engine: unexpected token %q in expression", t.text)
}

func (p *parser) parseCase() (Expr, error) {
	c := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("engine: CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
