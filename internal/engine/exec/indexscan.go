package exec

import (
	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

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
	return storage.IndexProbe{Lo: plan.BoundValue(lo), Hi: plan.BoundValue(hi), LoInc: loInc, HiInc: hiInc, Reverse: desc}
}

func indexRangeProbe(n *plan.IndexRange) storage.IndexProbe {
	return rangeProbeOf(n.Lo, n.Hi, n.LoInc, n.HiInc, n.Desc)
}

// indexOnlyIter serves a covering query straight off the index: the
// executor never touches table data. Point probes emit the probe key
// itself once per matching row ID; range probes emit each entry's key
// tuple in probe order. Batches are shaped like the plan node's
// pseudo-layout (the key columns, in index order), boxed — index keys are
// Values already.
type indexOnlyIter struct {
	node *plan.IndexOnlyScan

	ids  []int
	keys [][]storage.Value
	key  storage.Row // point form: the one shared key tuple
	pos  int
	out  storage.Batch
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
	s.out.Cols = make([]storage.Vector, len(n.Cols))
	return nil
}

func (s *indexOnlyIter) NextBatch() (*storage.Batch, error) {
	n := min(len(s.ids)-s.pos, morselRows)
	if n <= 0 {
		return nil, nil
	}
	for c := range s.out.Cols {
		vec := &s.out.Cols[c]
		vec.Reset()
		for k := s.pos; k < s.pos+n; k++ {
			if s.keys == nil {
				vec.AppendValue(s.key[c])
			} else {
				vec.AppendValue(s.keys[k][c])
			}
		}
	}
	s.pos += n
	s.out.N, s.out.Sel = n, storage.IdentitySel(n)
	return &s.out, nil
}

func (s *indexOnlyIter) Close() error { return nil }
