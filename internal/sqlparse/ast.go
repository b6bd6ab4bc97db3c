package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression node.
type Expr interface {
	expr()
	// String renders the expression approximately as SQL, for error
	// messages and EXPLAIN-style output.
	String() string
}

// ---------- Expressions ----------

// LiteralKind identifies the type of a literal.
type LiteralKind uint8

const (
	LitNull LiteralKind = iota
	LitBool
	LitInt
	LitFloat
	LitString
)

// Literal is a constant value in the query text.
type Literal struct {
	Kind  LiteralKind
	Bool  bool
	Int   int64
	Float float64
	Str   string
}

func (*Literal) expr() {}

func (l *Literal) String() string {
	switch l.Kind {
	case LitNull:
		return "NULL"
	case LitBool:
		if l.Bool {
			return "true"
		}
		return "false"
	case LitInt:
		return fmt.Sprintf("%d", l.Int)
	case LitFloat:
		// An integral float prints with a point: "2" would read back as an
		// integer.
		s := strconv.FormatFloat(l.Float, 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	case LitString:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	default:
		return "?"
	}
}

// ColumnRef references a column by name, optionally qualified by a table
// name or alias (`movies.year`). An empty Table means the reference is
// unqualified and resolves against every table in scope.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) expr() {}
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// BinaryExpr applies an infix operator: comparison (=, !=, <, <=, >, >=),
// logic (AND, OR) or arithmetic (+, -, *, /).
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

func (*BinaryExpr) expr() {}
func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left.String(), b.Op, b.Right.String())
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

func (*UnaryExpr) expr() {}
func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", u.Expr.String())
	}
	return fmt.Sprintf("(-%s)", u.Expr.String())
}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	Expr   Expr
	Negate bool
}

func (*IsNullExpr) expr() {}
func (e *IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.Expr.String())
	}
	return fmt.Sprintf("(%s IS NULL)", e.Expr.String())
}

// ---------- SELECT ----------

// AggFunc names an aggregate function, or empty for a plain expression.
type AggFunc string

const (
	AggNone  AggFunc = ""
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// SelectItem is one entry of the select list.
type SelectItem struct {
	Star bool    // SELECT *
	Agg  AggFunc // aggregate function, AggNone for scalar expressions
	// Expr is the argument. nil for COUNT(*) and for Star items.
	Expr  Expr
	Alias string
}

// OrderKey is one ORDER BY entry.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// JoinClause is one `[INNER] JOIN table [alias] ON cond` clause. Only
// inner joins are supported; the planner extracts equi-join keys from the
// ON condition and evaluates the rest as a residual filter.
type JoinClause struct {
	Table string
	Alias string // empty when the table name itself is the binding
	On    Expr
}

// SelectStmt is a SELECT over one table, optionally inner-joined with
// more tables.
type SelectStmt struct {
	Items    []SelectItem
	Distinct bool
	// Table is the primary FROM table; TableAlias is its optional
	// binding name (empty = the table name).
	Table      string
	TableAlias string
	Joins      []JoinClause
	Where      Expr   // nil when absent
	GroupBy    []Expr // nil when absent
	// Having filters grouped output rows; it may reference select-list
	// aliases and group columns (not raw aggregate calls).
	Having  Expr
	OrderBy []OrderKey // nil when absent
	Limit   int64      // -1 when absent
}

func (*SelectStmt) stmt() {}

// ---------- CREATE TABLE ----------

// ColumnDef is a column definition in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       string // normalized: INTEGER, FLOAT, TEXT, BOOLEAN
	Perceptual bool
}

// CreateTableStmt is CREATE TABLE name (cols…).
type CreateTableStmt struct {
	Table   string
	Columns []ColumnDef
}

func (*CreateTableStmt) stmt() {}

// ---------- INSERT ----------

// InsertStmt is INSERT INTO name [(cols…)] VALUES (…), (…).
type InsertStmt struct {
	Table   string
	Columns []string // nil means "all columns in schema order"
	Rows    [][]Expr
}

func (*InsertStmt) stmt() {}

// ---------- UPDATE / DELETE / DROP ----------

// Assignment is one SET column = expr clause.
type Assignment struct {
	Column string
	Expr   Expr
}

// UpdateStmt is UPDATE name SET … [WHERE …].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM name [WHERE …].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct{ Table string }

func (*DropTableStmt) stmt() {}

// DropIndexStmt is DROP INDEX name ON table. The table is mandatory:
// index names are unique per table, not globally, so naming the table
// keeps the statement unambiguous without a catalog-wide index registry.
type DropIndexStmt struct {
	Name  string
	Table string
}

func (*DropIndexStmt) stmt() {}

// ---------- CREATE INDEX ----------

// IndexCol is one key column of a CREATE INDEX, with its direction.
type IndexCol struct {
	Name string
	Desc bool
}

// CreateIndexStmt is the secondary-index DDL:
//
//	CREATE INDEX idx_year ON movies (year)              -- ordered (default)
//	CREATE INDEX idx_id   ON movies (movie_id) USING HASH
//	CREATE INDEX idx_gy   ON movies (genre, year DESC)  -- composite, mixed dirs
//
// Ordered indexes answer equality and range predicates (and index-ordered
// scans, honoring per-column ASC/DESC); hash indexes answer full-key
// equality only, in O(1). Every column must already exist in the schema —
// indexing a registered-but-not-yet-expanded column is rejected by the
// crowd-enabled layer with a typed error.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []IndexCol
	// Kind is "hash" or "ordered" (the default when USING is absent).
	Kind string
}

func (*CreateIndexStmt) stmt() {}

// ---------- EXPAND (schema expansion DDL) ----------

// ExpandMethod selects the fill strategy for an explicit EXPAND statement.
type ExpandMethod string

const (
	ExpandCrowd  ExpandMethod = "CROWD"  // direct crowd-sourcing per tuple
	ExpandSpace  ExpandMethod = "SPACE"  // perceptual-space extraction
	ExpandHybrid ExpandMethod = "HYBRID" // crowd + space-based cleaning
)

// ExpandStmt is the explicit form of query-driven schema expansion:
//
//	EXPAND TABLE movies ADD COLUMN is_comedy BOOLEAN PERCEPTUAL
//	    USING SPACE WITH SAMPLES 40
//
// Implicit expansion (a SELECT referencing an unknown column) is resolved
// by the engine layer and rewritten into the same internal operation.
type ExpandStmt struct {
	Table   string
	Column  ColumnDef
	Method  ExpandMethod
	Samples int64   // WITH SAMPLES n: training examples per class; 0 = default
	Budget  float64 // WITH BUDGET x: max dollars to spend; 0 = unlimited
}

func (*ExpandStmt) stmt() {}

// ---------- EXPLAIN ----------

// ExplainStmt is `EXPLAIN <statement>`: the wrapped statement is planned
// but not executed, and the plan tree is returned as the result rows.
type ExplainStmt struct {
	Stmt Statement
	// Analyze marks EXPLAIN ANALYZE: the statement is actually executed
	// and the rendered plan is annotated with per-operator actuals.
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// WalkColumns calls f for every ColumnRef in the expression tree.
// The engine uses it to discover which columns a query touches, which is
// how implicit schema expansion is triggered.
func WalkColumns(e Expr, f func(*ColumnRef)) {
	switch n := e.(type) {
	case nil:
	case *ColumnRef:
		f(n)
	case *BinaryExpr:
		WalkColumns(n.Left, f)
		WalkColumns(n.Right, f)
	case *UnaryExpr:
		WalkColumns(n.Expr, f)
	case *IsNullExpr:
		WalkColumns(n.Expr, f)
	case *Literal:
	}
}
