package exec

import (
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// indexIter streams the rows an index probe selects through the storage
// layer's batched index cursor: only the matching rows are boxed, batch
// by batch, from a snapshot pinned in the same critical section that
// resolved the row IDs. It is the single index operator, for IndexScan
// (point probe) and IndexRange (bound probe) alike: the plain form
// resolves its probe at Open and its cursor owns the pin; a morsel reads
// one chunk of the ID list its source resolved, over the source's shared
// pin. The node's residual predicate is a filterIter on top (filterOver).
// Rows returned by Next alias the cursor's batch buffer.
type indexIter struct {
	table *storage.Table
	index string
	probe storage.IndexProbe

	snap *storage.Snap // a source's shared pin; nil for the plain probe
	ids  []int         // with snap: this morsel's chunk of the resolved IDs

	cur *storage.IndexCursor
}

// pointProbeOf lowers an equality key — one literal per index key column
// — into a storage probe.
func pointProbeOf(keys []*sqlparse.Literal) storage.IndexProbe {
	key := make([]storage.Value, len(keys))
	for i, l := range keys {
		key[i] = plan.LitValue(l)
	}
	return storage.IndexProbe{Key: key}
}

// rangeProbeOf lowers range bounds into a storage probe. desc becomes a
// reversed probe: same rows, opposite key order.
func rangeProbeOf(lo, hi *sqlparse.Literal, loInc, hiInc, desc bool) storage.IndexProbe {
	probe := storage.IndexProbe{LoInc: loInc, HiInc: hiInc, Reverse: desc}
	if lo != nil {
		v := plan.LitValue(lo)
		probe.Lo = &v
	}
	if hi != nil {
		v := plan.LitValue(hi)
		probe.Hi = &v
	}
	return probe
}

func indexRangeProbe(n *plan.IndexRange) storage.IndexProbe {
	return rangeProbeOf(n.Lo, n.Hi, n.LoInc, n.HiInc, n.Desc)
}

func (s *indexIter) Open() error {
	if s.snap != nil {
		s.cur = storage.NewIndexCursorAt(s.snap, s.ids, 0)
		return nil
	}
	cur, err := s.table.NewIndexCursor(s.index, s.probe, 0)
	s.cur = cur
	return err
}

func (s *indexIter) Next() (storage.Row, bool, error) {
	row, ok := s.cur.Next()
	return row, ok, nil
}

func (s *indexIter) Close() error {
	if s.cur != nil {
		s.cur.Close()
	}
	return nil
}

// indexOnlyIter serves a covering query straight off the index: the
// executor never touches table data. Point probes emit the probe key
// itself once per matching row ID; range probes emit each entry's key
// tuple in probe order. Emitted rows are shaped like the plan node's
// pseudo-layout (the key columns, in index order) and are owned by the
// iterator's backing arrays — safe to alias until Close.
type indexOnlyIter struct {
	node *plan.IndexOnlyScan

	ids  []int
	keys [][]storage.Value
	key  storage.Row // point form: the one shared key tuple
	pos  int
}

func (s *indexOnlyIter) Open() error {
	n := s.node
	probe := rangeProbeOf(n.Lo, n.Hi, n.LoInc, n.HiInc, n.Desc)
	if len(n.Keys) > 0 {
		probe = pointProbeOf(n.Keys)
	}
	ids, keys, err := n.Table.IndexOnlyProbe(n.Index, probe)
	if err != nil {
		return err
	}
	s.ids, s.keys, s.pos = ids, keys, 0
	s.key = storage.Row(probe.Key)
	return nil
}

func (s *indexOnlyIter) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.ids) {
		return nil, false, nil
	}
	i := s.pos
	s.pos++
	if s.keys == nil {
		return s.key, true, nil
	}
	return storage.Row(s.keys[i]), true, nil
}

func (s *indexOnlyIter) Close() error { return nil }
