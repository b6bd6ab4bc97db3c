package core

import (
	"fmt"
	"time"

	"crowddb/internal/storage"
	"crowddb/internal/svm"
)

// GoldValue is one expert-provided numeric judgment for a tuple, keyed by
// the table's space item id.
type GoldValue struct {
	ItemID int
	Value  float64
}

// GoldFill expands (or refills) a FLOAT perceptual column from a small
// gold sample of numeric judgments: a support vector regression machine is
// trained on the samples' perceptual-space coordinates and evaluated for
// every tuple — the §3.4 workflow for graded attributes such as a movie's
// humor score ("SELECT name FROM movies WHERE humor >= 8").
//
// The gold sample is passed in directly rather than crowd-sourced: numeric
// elicitation UIs are out of scope of the marketplace simulator, and the
// paper likewise obtains its graded samples from trusted experts.
func (db *DB) GoldFill(table, column string, gold []GoldValue) (*ExpansionReport, error) {
	if len(gold) < 4 {
		return nil, fmt.Errorf("core: GoldFill needs at least 4 gold values, got %d", len(gold))
	}
	tbl, ok := db.Catalog().Get(table)
	if !ok {
		return nil, fmt.Errorf("core: no such table %q", table)
	}
	binding := db.binding(table)
	if binding == nil {
		return nil, fmt.Errorf("core: GoldFill requires AttachSpace on %q", table)
	}
	sp := binding.space

	schema := tbl.Schema()
	if _, exists := schema.Lookup(column); !exists {
		err := db.mutate(func() error {
			_, err := tbl.AddColumn(storage.Column{
				Name: column, Kind: storage.KindFloat, Perceptual: true, Origin: storage.ColumnExpanded,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		idx, _ := schema.Lookup(column)
		if schema.Column(idx).Kind != storage.KindFloat {
			return nil, fmt.Errorf("core: GoldFill requires a FLOAT column, %s is %s",
				column, schema.Column(idx).Kind)
		}
	}

	clock := time.Now()
	X := make([][]float64, 0, len(gold))
	y := make([]float64, 0, len(gold))
	for _, g := range gold {
		if g.ItemID < 0 || g.ItemID >= sp.NumItems() {
			return nil, fmt.Errorf("core: gold item %d outside the space [0,%d)", g.ItemID, sp.NumItems())
		}
		X = append(X, sp.Vector(g.ItemID))
		y = append(y, g.Value)
	}
	model, err := svm.TrainSVR(X, y, svm.SVRConfig{C: 10, Epsilon: 0.1})
	if err != nil {
		return nil, err
	}
	report := &ExpansionReport{Table: tbl.Name(), Column: column, Method: "GOLD-SVR", TrainingSize: len(gold)}
	report.Steps.Train = lap(&clock)

	// The labels are the regression's value for every item of the space;
	// which rows carry those items is decided when the column is applied.
	scores := model.PredictMatrix(sp.Coords(), db.engine.Dop())
	report.Steps.Predict = lap(&clock)
	err = fillByItem(db, tbl, column, report, func(id int) (float64, bool) {
		if id < 0 || id >= len(scores) {
			return 0, false
		}
		return scores[id], true
	})
	if err != nil {
		return nil, err
	}
	report.Steps.Fill = lap(&clock)
	report.Steps.observe()
	return report, nil
}
