package exec

import (
	"sort"
	"strconv"
	"sync"

	"crowddb/internal/engine/plan"
	"crowddb/internal/sqlparse"
	"crowddb/internal/storage"
)

// hashJoinIter is an inner equi-join: Open drains the right (build) input
// into a hash table keyed on the join columns; Next streams the left
// (probe) input, emitting one combined row per match. Rows with a NULL
// join key never match (NULL = anything is UNKNOWN under three-valued
// logic), so they are dropped on both sides. Residual (non-equi) ON
// conjuncts filter the combined rows.
//
// With no keys, the single hash bucket degenerates into a cross join,
// filtered by the residual.
//
// Both inputs are sources. The build is a runMorsels phase: workers
// insert sequence-stamped entries into a sharded table, and buckets are
// re-sorted by sequence after the barrier when more than one worker
// filled them, so probe output is the same at any dop. The probe is the
// ordered gather over the left source with a probeIter on every morsel.
// A side that is a marked chain gets N workers; a side that is not (a
// small table, a lower join, any serial plan) is one morsel, drained
// inline — either side independently.
type hashJoinIter struct {
	node        *plan.HashJoin
	left, right sourceFn

	table *joinTable
	probe *gatherIter
}

// appendJoinKey appends an encoding of the key values to dst, with the
// same equality semantics as the `=` operator: numeric values compare
// across int/float, so both hash through their float form. Text is
// length-prefixed so values containing separator bytes cannot forge a
// multi-key collision (a key list is equal iff every component is).
// ok=false when any value is NULL. The appended dst is returned so
// callers can keep one scratch buffer per iterator instead of allocating
// per row.
func appendJoinKey(dst []byte, vals []storage.Value) ([]byte, bool) {
	for _, v := range vals {
		switch v.Kind() {
		case storage.KindNull:
			return dst, false
		case storage.KindBool:
			b, _ := v.AsBool()
			if b {
				dst = append(dst, 'b', '1')
			} else {
				dst = append(dst, 'b', '0')
			}
		case storage.KindInt, storage.KindFloat:
			f, _ := v.AsFloat()
			dst = append(dst, 'n')
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		case storage.KindText:
			t, _ := v.AsText()
			dst = append(dst, 't')
			dst = strconv.AppendInt(dst, int64(len(t)), 10)
			dst = append(dst, ':')
			dst = append(dst, t...)
		}
		dst = append(dst, 0x1f)
	}
	return dst, true
}

// joinTable is the shared build table: a fixed shard array so parallel
// build workers contend on a shard mutex, not one global lock. After the
// build barrier it is read-only and probed without locking.
const joinShards = 64

type joinEntry struct {
	seq int64 // build-side row sequence, for deterministic probe output
	row storage.Row
}

type joinShard struct {
	mu sync.Mutex
	m  map[string][]joinEntry
}

type joinTable struct{ shards [joinShards]joinShard }

func newJoinTable() *joinTable {
	jt := &joinTable{}
	for i := range jt.shards {
		jt.shards[i] = joinShard{m: map[string][]joinEntry{}}
	}
	return jt
}

func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (jt *joinTable) insert(key []byte, seq int64, row storage.Row) {
	s := &jt.shards[fnv1a(key)%joinShards]
	s.mu.Lock()
	s.m[string(key)] = append(s.m[string(key)], joinEntry{seq: seq, row: row})
	s.mu.Unlock()
}

// lookup is lock-free: only legal after the build barrier.
func (jt *joinTable) lookup(key []byte) []joinEntry {
	return jt.shards[fnv1a(key)%joinShards].m[string(key)]
}

// sortBuckets orders every bucket by build sequence. Parallel workers
// insert in claim-completion order; sorting restores the serial build's
// bucket order, so probing emits byte-identical row sequences at any dop.
func (jt *joinTable) sortBuckets() {
	for i := range jt.shards {
		for _, entries := range jt.shards[i].m {
			sort.Slice(entries, func(a, b int) bool { return entries[a].seq < entries[b].seq })
		}
	}
}

func (j *hashJoinIter) Open() error {
	j.table = newJoinTable()
	if err := j.build(); err != nil {
		return err
	}
	j.probe = &gatherIter{dop: j.node.Dop, mkSource: j.probeSource}
	return j.probe.Open()
}

// build fills the hash table from the right source. Build rows are
// cloned: the scan beneath reuses its batch buffer. Each worker keeps
// private scratch for key encoding and key values, so the fill allocates
// nothing per input row beyond the clone.
func (j *hashJoinIter) build() error {
	src, err := j.right()
	if err != nil {
		return err
	}
	node, workers := j.node, src.workers(j.node.Dop)
	err = runMorsels(src, node.Dop, func(int) func(idx int, it Iterator) error {
		env := rowEnv{layout: node.RightLayout}
		var scratch []byte
		var vals []storage.Value
		return func(idx int, it Iterator) error {
			seq := int64(idx) * morselRows
			for ; ; seq++ {
				row, ok, err := it.Next()
				if err != nil || !ok {
					return err
				}
				env.row = row
				if vals, err = joinKeyValues(vals[:0], node.RightKeys, &env); err != nil {
					return err
				}
				key, keyOK := appendJoinKey(scratch[:0], vals)
				scratch = key
				if keyOK { // NULL keys are dropped
					j.table.insert(key, seq, row.Clone())
				}
			}
		}
	})
	if err == nil && workers > 1 {
		j.table.sortBuckets()
	}
	return err
}

// joinKeyValues appends the values of the key expressions to vals.
func joinKeyValues(vals []storage.Value, keys []sqlparse.Expr, env *rowEnv) ([]storage.Value, error) {
	for _, e := range keys {
		v, err := EvalValue(e, env)
		if err != nil {
			return vals, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func (j *hashJoinIter) Next() (storage.Row, bool, error) { return j.probe.Next() }

// probeSource stacks a probeIter on every morsel of the left source: each
// probes the shared (now read-only) build table with private envs and
// scratch, emitting owned combined rows.
func (j *hashJoinIter) probeSource() (*source, error) {
	src, err := j.left()
	if err != nil {
		return nil, err
	}
	src.stack(func(it Iterator) Iterator {
		return &probeIter{
			input: it, node: j.node, table: j.table,
			leftEnv: rowEnv{layout: j.node.LeftLayout}, outEnv: rowEnv{layout: j.node.Layout},
		}
	})
	src.owned = true // combined rows are fresh allocations
	return src, nil
}

// probeIter is the probe loop over one morsel of the left input.
type probeIter struct {
	input Iterator
	node  *plan.HashJoin
	table *joinTable

	leftEnv rowEnv
	outEnv  rowEnv
	// Reusable scratch for key encoding and key values: the probe hot
	// path allocates nothing per input row.
	scratch []byte
	valBuf  []storage.Value

	// The current left row's pending matches.
	leftRow storage.Row
	matches []joinEntry
	mi      int
}

func (p *probeIter) Open() error { return p.input.Open() }

func (p *probeIter) Next() (storage.Row, bool, error) {
	node := p.node
	for {
		for p.mi < len(p.matches) {
			right := p.matches[p.mi].row
			p.mi++
			combined := make(storage.Row, 0, len(p.leftRow)+len(right))
			combined = append(append(combined, p.leftRow...), right...)
			if node.Residual != nil {
				p.outEnv.row = combined
				t, err := EvalPredicate(node.Residual, &p.outEnv)
				if err != nil {
					return nil, false, err
				}
				if t != TriTrue {
					continue
				}
			}
			return combined, true, nil
		}

		row, ok, err := p.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		p.leftEnv.row = row
		if p.valBuf, err = joinKeyValues(p.valBuf[:0], node.LeftKeys, &p.leftEnv); err != nil {
			return nil, false, err
		}
		key, keyOK := appendJoinKey(p.scratch[:0], p.valBuf)
		p.scratch = key
		if !keyOK {
			continue
		}
		// No clone: each emitted row copies the left values, and the scan
		// buffer beneath is only recycled on the next left pull.
		p.matches, p.mi, p.leftRow = p.table.lookup(key), 0, row
	}
}

func (p *probeIter) Close() error { return p.input.Close() }

// Close ends the probe first — with N workers that stops and joins them —
// and only then drops the build table they read.
func (j *hashJoinIter) Close() error {
	var err error
	if j.probe != nil {
		err = j.probe.Close()
	}
	j.table = nil
	return err
}
