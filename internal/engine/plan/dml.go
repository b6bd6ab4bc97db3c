package plan

import (
	"fmt"
	"strings"

	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// DML is the root of a planned UPDATE or DELETE. Input is the target
// table's access path, chosen for the WHERE exactly as a SELECT's
// single-table segment is (access.go): its batches name the physical rows
// they hold (storage.Batch.RowID). The node emits, for every row found,
// its ID and the value of each SET expression over the old row — batch
// column k is Exprs[k], to be written to schema column Targets[k]; a
// DELETE carries no column at all. The engine drains it and applies the
// row IDs and cells to the table in one batch (engine/dml.go).
type DML struct {
	Input   Node
	Verb    string // "Update" or "Delete"
	Table   *storage.Table
	Name    string          // table name
	Targets []int           // UPDATE: schema positions of the SET columns, in statement order
	Exprs   []sqlparse.Expr // and the expression assigned to each
	Layout  *Layout
}

func (*DML) node() {}

func (d *DML) Describe() string {
	if len(d.Targets) == 0 {
		return fmt.Sprintf("%s(%s)", d.Verb, d.Name)
	}
	names := make([]string, len(d.Targets))
	for k, col := range d.Targets {
		names[k] = d.Layout.Segs[0].Schema.Column(col).Name
	}
	return fmt.Sprintf("%s(%s, set=%s)", d.Verb, d.Name, strings.Join(names, ", "))
}

// BuildDML lowers a parsed UPDATE or DELETE into its plan: a DML root over
// the access path of the WHERE. Every column the statement names — in the
// WHERE, as a SET target, inside a SET expression — is resolved here, so a
// missing one is a *MissingColumnError before any row is read and whatever
// the rows hold: query-driven expansion triggers for DML as it does for
// SELECT, and a statement that matches nothing still rejects a bad target.
func BuildDML(stmt sqlparse.Statement, cat *storage.Catalog) (*SelectPlan, error) {
	d := &DML{}
	var table string
	var where sqlparse.Expr
	var set []sqlparse.Assignment
	switch s := stmt.(type) {
	case *sqlparse.UpdateStmt:
		d.Verb, table, where, set = "Update", s.Table, s.Where, s.Set
	case *sqlparse.DeleteStmt:
		d.Verb, table, where = "Delete", s.Table, s.Where
	default:
		return nil, fmt.Errorf("engine: %T is not an UPDATE or DELETE", stmt)
	}
	// The WHERE is planned as that of SELECT … FROM table WHERE ….
	b := &builder{stmt: &sqlparse.SelectStmt{Table: table, Where: where, Limit: -1}}
	if err := b.resolveTables(cat); err != nil {
		return nil, err
	}
	d.Table, d.Name, d.Layout = b.tables[0], b.segs[0].Table, b.layout
	if err := b.validate(false, nil); err != nil {
		return nil, err
	}
	for _, asg := range set {
		col, ok := b.segs[0].Schema.Lookup(asg.Column)
		if !ok {
			return nil, &MissingColumnError{Table: d.Name, Column: asg.Column}
		}
		if err := checkRefs(asg.Expr, b.layout); err != nil {
			return nil, err
		}
		d.Targets, d.Exprs = append(d.Targets, col), append(d.Exprs, asg.Expr)
	}
	input, err := b.buildJoinTree()
	if err != nil {
		return nil, err
	}
	d.Input = input
	p := &SelectPlan{Root: d}
	finishAccess(&p.Root)
	pruneColumns(p.Root)
	return p, nil
}
