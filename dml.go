package continual

import (
	"fmt"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/sql"
)

// execCreateTable handles CREATE TABLE.
func (db *DB) execCreateTable(stmt *sql.CreateTableStmt) error {
	cols := make([]relation.Column, len(stmt.Columns))
	for i, c := range stmt.Columns {
		cols[i] = relation.Column{Name: c.Name, Type: c.Type}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return err
	}
	// Through the manager, not the store: DDL shares the CQ namespace
	// guards (a table may not shadow a registered continual query).
	return db.manager.CreateTable(stmt.Table, schema)
}

// emptyTuple is passed to constant-expression evaluation.
var emptyTuple = relation.Tuple{}

// execInsert handles INSERT INTO ... VALUES.
func (db *DB) execInsert(stmt *sql.InsertStmt) error {
	schema, err := db.store.Schema(stmt.Table)
	if err != nil {
		return err
	}
	tx := db.store.Begin()
	for _, row := range stmt.Rows {
		if len(row) != schema.Len() {
			tx.Abort()
			return fmt.Errorf("continual: INSERT row has %d values, table %q has %d columns",
				len(row), stmt.Table, schema.Len())
		}
		vals := make([]relation.Value, len(row))
		for i, e := range row {
			ce, err := algebra.Compile(e, schema)
			if err != nil {
				tx.Abort()
				return err
			}
			v, err := ce.Eval(emptyTuple)
			if err != nil {
				tx.Abort()
				return err
			}
			vals[i] = v
		}
		if _, err := tx.Insert(stmt.Table, vals); err != nil {
			tx.Abort()
			return err
		}
	}
	_, err = tx.Commit()
	return err
}

// execUpdate handles UPDATE ... SET ... WHERE.
func (db *DB) execUpdate(stmt *sql.UpdateStmt) error {
	schema, err := db.store.Schema(stmt.Table)
	if err != nil {
		return err
	}
	var pred algebra.CompiledExpr
	if stmt.Where != nil {
		pred, err = algebra.Compile(stmt.Where, schema)
		if err != nil {
			return err
		}
	}
	type assign struct {
		col int
		ce  algebra.CompiledExpr
	}
	assigns := make([]assign, len(stmt.Set))
	for i, a := range stmt.Set {
		idx, ok := schema.ColIndex(a.Column)
		if !ok {
			return fmt.Errorf("continual: UPDATE: no column %q in %q", a.Column, stmt.Table)
		}
		ce, err := algebra.Compile(a.Value, schema)
		if err != nil {
			return err
		}
		assigns[i] = assign{col: idx, ce: ce}
	}

	snap, err := db.store.Snapshot(stmt.Table)
	if err != nil {
		return err
	}
	tx := db.store.Begin()
	for _, t := range snap.Tuples() {
		if pred != nil {
			ok, err := algebra.EvalPredicate(pred, t)
			if err != nil {
				tx.Abort()
				return err
			}
			if !ok {
				continue
			}
		}
		newVals := make([]relation.Value, len(t.Values))
		copy(newVals, t.Values)
		for _, a := range assigns {
			v, err := a.ce.Eval(t)
			if err != nil {
				tx.Abort()
				return err
			}
			newVals[a.col] = v
		}
		if err := tx.Update(stmt.Table, t.TID, newVals); err != nil {
			tx.Abort()
			return err
		}
	}
	_, err = tx.Commit()
	return err
}

// execDelete handles DELETE FROM ... WHERE.
func (db *DB) execDelete(stmt *sql.DeleteStmt) error {
	schema, err := db.store.Schema(stmt.Table)
	if err != nil {
		return err
	}
	var pred algebra.CompiledExpr
	if stmt.Where != nil {
		pred, err = algebra.Compile(stmt.Where, schema)
		if err != nil {
			return err
		}
	}
	snap, err := db.store.Snapshot(stmt.Table)
	if err != nil {
		return err
	}
	tx := db.store.Begin()
	for _, t := range snap.Tuples() {
		if pred != nil {
			ok, err := algebra.EvalPredicate(pred, t)
			if err != nil {
				tx.Abort()
				return err
			}
			if !ok {
				continue
			}
		}
		if err := tx.Delete(stmt.Table, t.TID); err != nil {
			tx.Abort()
			return err
		}
	}
	_, err = tx.Commit()
	return err
}
