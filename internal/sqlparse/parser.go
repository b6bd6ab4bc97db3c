package sqlparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser that pulls its tokens from a
// Lexer one at a time: it looks one token ahead and keeps no token slice,
// so a statement allocates its AST and nothing else.
type Parser struct {
	lx  Lexer
	tok Token // the lookahead
	// err is the lexer's error, once it has one; tok is then an EOF at
	// the failing offset and the lexer is not asked again.
	err error
}

// reset points p at input and reads its first token.
func (p *Parser) reset(input string) {
	*p = Parser{lx: Lexer{input: input}}
	p.advance()
}

// advance reads the next lookahead token.
func (p *Parser) advance() {
	if p.err != nil {
		return
	}
	if p.tok, p.err = p.lx.Next(); p.err != nil {
		p.tok = Token{Type: TokEOF, Pos: p.lx.pos}
	}
}

// lexErr lexes what input is left and returns the lexer's error, if any:
// a lexing error anywhere in the text wins over the parse's outcome, as
// it did when the whole text was tokenized before parsing.
func (p *Parser) lexErr() error {
	for p.err == nil && p.tok.Type != TokEOF {
		p.advance()
	}
	return p.err
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	var p Parser
	var one [1]Statement
	stmts, err := p.script(input, one[:0])
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqlparse: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(input string) ([]Statement, error) {
	var p Parser
	return p.script(input, nil)
}

// script appends input's statements to out, which is empty.
func (p *Parser) script(input string, out []Statement) ([]Statement, error) {
	p.reset(input)
	out, err := p.statements(out)
	if lexErr := p.lexErr(); lexErr != nil {
		return nil, lexErr
	}
	return out, err
}

func (p *Parser) statements(out []Statement) ([]Statement, error) {
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().Type == TokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.acceptSymbol(";") && p.peek().Type != TokEOF {
			return nil, p.errorf("expected ';' or end of input, found %s", p.peek())
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sqlparse: empty input")
	}
	return out, nil
}

func (p *Parser) peek() Token { return p.tok }

func (p *Parser) next() Token {
	t := p.tok
	if t.Type != TokEOF {
		p.advance()
	}
	return t
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

func (p *Parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Type == TokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.Type == TokSymbol && t.Text == sym {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

// parseIdent accepts an identifier, or a non-reserved-looking keyword used
// as a name (we are permissive: COUNT etc. may appear as column names).
func (p *Parser) parseIdent() (string, error) {
	t := p.peek()
	if t.Type == TokIdent {
		p.next()
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, found %s", t)
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Type != TokKeyword {
		return nil, p.errorf("expected statement keyword, found %s", t)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "DROP":
		return p.parseDrop()
	case "EXPAND":
		return p.parseExpand()
	case "EXPLAIN":
		p.next()
		// ANALYZE is contextual, not reserved: it only means "execute and
		// annotate" in this position, and stays usable as an identifier.
		analyze := false
		if pk := p.peek(); pk.Type == TokIdent && strings.ToUpper(pk.Text) == "ANALYZE" {
			p.next()
			analyze = true
		}
		if p.peek().Type == TokKeyword && p.peek().Text == "EXPLAIN" {
			return nil, p.errorf("EXPLAIN cannot be nested")
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner, Analyze: analyze}, nil
	default:
		return nil, p.errorf("unsupported statement %s", t)
	}
}

// ---------- SELECT ----------

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	}

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = tbl
	stmt.TableAlias = p.parseOptionalAlias()

	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		join := JoinClause{}
		if join.Table, err = p.parseIdent(); err != nil {
			return nil, err
		}
		join.Alias = p.parseOptionalAlias()
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if join.On, err = p.parseExpr(); err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, join)
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
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
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
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
			key := OrderKey{Expr: e}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.Type != TokNumber {
			return nil, p.errorf("expected LIMIT count, found %s", t)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("invalid LIMIT %q", t.Text)
		}
		p.next()
		stmt.Limit = n
	}
	return stmt, nil
}

var aggKeywords = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	if t := p.peek(); t.Type == TokKeyword {
		if agg, ok := aggKeywords[t.Text]; ok {
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return SelectItem{}, err
			}
			item := SelectItem{Agg: agg}
			if p.acceptSymbol("*") {
				if agg != AggCount {
					return SelectItem{}, p.errorf("%s(*) is not valid; only COUNT(*)", agg)
				}
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return SelectItem{}, err
				}
				item.Expr = arg
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			item.Alias = p.parseOptionalAlias()
			return item, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: e, Alias: p.parseOptionalAlias()}, nil
}

func (p *Parser) parseOptionalAlias() string {
	// We support the bare-identifier alias form: SELECT expr name.
	// (AS is not a keyword in this dialect to keep the grammar small.)
	if t := p.peek(); t.Type == TokIdent {
		p.next()
		return t.Text
	}
	return ""
}

// ---------- expressions (precedence climbing) ----------

// precedence: OR < AND < NOT < comparison < additive < multiplicative < unary
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Negate: neg}, nil
	}
	for _, op := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if p.acceptSymbol(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptSymbol("+"):
			op = "+"
		case p.acceptSymbol("-"):
			op = "-"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptSymbol("*"):
			op = "*"
		case p.acceptSymbol("/"):
			op = "/"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Constant-fold negative literals so -3 is a literal, which the
		// INSERT path requires.
		if lit, ok := e.(*Literal); ok {
			switch lit.Kind {
			case LitInt:
				return &Literal{Kind: LitInt, Int: -lit.Int}, nil
			case LitFloat:
				return &Literal{Kind: LitFloat, Float: -lit.Float}, nil
			}
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Type {
	case TokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", t.Text)
			}
			return &Literal{Kind: LitFloat, Float: f}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			// Integer overflow: fall back to float like most engines.
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errorf("invalid number %q", t.Text)
			}
			return &Literal{Kind: LitFloat, Float: f}, nil
		}
		return &Literal{Kind: LitInt, Int: i}, nil
	case TokString:
		p.next()
		return &Literal{Kind: LitString, Str: t.Text}, nil
	case TokIdent:
		p.next()
		// Qualified reference: table.column.
		if p.acceptSymbol(".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Name: col}, nil
		}
		return &ColumnRef{Name: t.Text}, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return &Literal{Kind: LitBool, Bool: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Kind: LitBool, Bool: false}, nil
		case "NULL":
			p.next()
			return &Literal{Kind: LitNull}, nil
		}
		// Aggregate calls inside expressions (ORDER BY COUNT(*), HAVING
		// AVG(x) > 1) parse into a ColumnRef naming the grouped output
		// column, which is how the engine resolves them.
		if agg, ok := aggKeywords[t.Text]; ok {
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			argText := "*"
			if !p.acceptSymbol("*") {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				argText = arg.String()
			} else if agg != AggCount {
				return nil, p.errorf("%s(*) is not valid; only COUNT(*)", agg)
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &ColumnRef{Name: strings.ToLower(string(agg)) + "(" + argText + ")"}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", t)
	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %s in expression", t)
}

// ---------- CREATE TABLE ----------

var typeNames = map[string]string{
	"INTEGER": "INTEGER", "INT": "INTEGER",
	"FLOAT": "FLOAT", "REAL": "FLOAT",
	"TEXT": "TEXT", "VARCHAR": "TEXT",
	"BOOLEAN": "BOOLEAN", "BOOL": "BOOLEAN",
}

func (p *Parser) parseColumnType() (string, error) {
	t := p.peek()
	if t.Type == TokKeyword {
		if norm, ok := typeNames[t.Text]; ok {
			p.next()
			// Accept and ignore VARCHAR(n) length suffixes.
			if p.acceptSymbol("(") {
				if n := p.peek(); n.Type == TokNumber {
					p.next()
				}
				if err := p.expectSymbol(")"); err != nil {
					return "", err
				}
			}
			return norm, nil
		}
	}
	return "", p.errorf("expected column type, found %s", t)
}

// parseCreate dispatches CREATE TABLE vs CREATE INDEX.
func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("INDEX") {
		return p.parseCreateIndex()
	}
	return p.parseCreateTable()
}

// parseCreateIndex parses the tail of
//
//	CREATE INDEX name ON table (column [ASC|DESC], ...) [USING HASH|ORDERED]
//
// with CREATE INDEX already consumed.
func (p *Parser) parseCreateIndex() (*CreateIndexStmt, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []IndexCol
	for {
		column, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		col := IndexCol{Name: column}
		if p.acceptKeyword("DESC") {
			col.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		cols = append(cols, col)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	stmt := &CreateIndexStmt{Name: name, Table: table, Columns: cols, Kind: "ordered"}
	if p.acceptKeyword("USING") {
		// HASH and ORDERED are not reserved words; they arrive as plain
		// identifiers here.
		kind, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(kind) {
		case "hash", "ordered":
			stmt.Kind = strings.ToLower(kind)
		default:
			return nil, p.errorf("expected HASH or ORDERED after USING, found %q", kind)
		}
	}
	return stmt, nil
}

func (p *Parser) parseCreateTable() (*CreateTableStmt, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Table: name}
	for {
		colName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseColumnType()
		if err != nil {
			return nil, err
		}
		col := ColumnDef{Name: colName, Type: typ}
		if p.acceptKeyword("PERCEPTUAL") {
			col.Perceptual = true
		}
		stmt.Columns = append(stmt.Columns, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

// ---------- INSERT ----------

func (p *Parser) parseInsert() (*InsertStmt, error) {
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
	stmt := &InsertStmt{Table: name}
	if p.acceptSymbol("(") {
		for {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		// The row's values are gathered on the stack and copied out at
		// their count: one allocation per row, not one per doubling.
		var values [16]Expr
		row := values[:0]
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, slices.Clone(row))
		if !p.acceptSymbol(",") {
			break
		}
	}
	return stmt, nil
}

// ---------- UPDATE / DELETE / DROP ----------

func (p *Parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Column: col, Expr: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *Parser) parseDelete() (*DeleteStmt, error) {
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
	stmt := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

// parseDrop dispatches DROP TABLE vs DROP INDEX.
func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("INDEX") {
		return p.parseDropIndex()
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: name}, nil
}

// parseDropIndex parses the tail of
//
//	DROP INDEX name ON table
//
// with DROP INDEX already consumed.
func (p *Parser) parseDropIndex() (*DropIndexStmt, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropIndexStmt{Name: name, Table: table}, nil
}

// ---------- EXPAND ----------

func (p *Parser) parseExpand() (*ExpandStmt, error) {
	if err := p.expectKeyword("EXPAND"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ADD"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("COLUMN"); err != nil {
		return nil, err
	}
	colName, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	typ, err := p.parseColumnType()
	if err != nil {
		return nil, err
	}
	col := ColumnDef{Name: colName, Type: typ, Perceptual: true}
	if p.acceptKeyword("PERCEPTUAL") {
		col.Perceptual = true
	}
	stmt := &ExpandStmt{Table: name, Column: col, Method: ExpandSpace}
	if p.acceptKeyword("USING") {
		t := p.peek()
		switch {
		case p.acceptKeyword("CROWD"):
			stmt.Method = ExpandCrowd
		case p.acceptKeyword("SPACE"):
			stmt.Method = ExpandSpace
		case p.acceptKeyword("HYBRID"):
			stmt.Method = ExpandHybrid
		default:
			return nil, p.errorf("expected CROWD, SPACE or HYBRID, found %s", t)
		}
	}
	for p.acceptKeyword("WITH") {
		switch {
		case p.acceptKeyword("SAMPLES"):
			t := p.peek()
			if t.Type != TokNumber {
				return nil, p.errorf("expected sample count, found %s", t)
			}
			n, err := strconv.ParseInt(t.Text, 10, 64)
			if err != nil || n <= 0 {
				return nil, p.errorf("invalid sample count %q", t.Text)
			}
			p.next()
			stmt.Samples = n
		case p.acceptKeyword("BUDGET"):
			t := p.peek()
			if t.Type != TokNumber {
				return nil, p.errorf("expected budget, found %s", t)
			}
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil || f < 0 {
				return nil, p.errorf("invalid budget %q", t.Text)
			}
			p.next()
			stmt.Budget = f
		default:
			return nil, p.errorf("expected SAMPLES or BUDGET after WITH, found %s", p.peek())
		}
	}
	return stmt, nil
}
