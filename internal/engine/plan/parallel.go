package plan

// Parallelize is the physical-parallelism pass (see DESIGN.md §14): it
// walks a built plan and marks the pieces the executor can run
// morsel-parallel at the given degree of parallelism.
//
//   - A Filter*/Project* chain over a Scan or IndexRange leaf becomes a
//     Gather exchange: the leaf is split into row-range (or row-ID-chunk)
//     morsels, the chain runs morsel-local on dop workers, and Gather
//     re-emits rows in morsel order — the serial row sequence.
//   - A HashJoin whose build and/or probe child is such a chain gets
//     Dop set: the build rows are collected by parallel workers (and put
//     back in input order before they are indexed, so probing stays
//     deterministic) and the probe side streams through an ordered
//     gather.
//   - An Aggregate over such a chain gets Dop set: workers fold partial
//     groups per morsel and a final merge combines them in first-seen
//     order.
//
// Leaves estimated below MinParallelRows stay serial: tiny inputs gain
// nothing from fan-out, and keeping their plans byte-identical keeps
// EXPLAIN output and plan fingerprints stable for small tables.
// IndexScan point probes are never split — they select a handful of rows
// by construction.
//
// dop <= 1 is a no-op: the plan keeps today's fully serial shape.

// MinParallelRows is the minimum estimated leaf cardinality before a
// scan/probe is split into morsels. A variable, not a constant, so tests
// can lower it to exercise parallel paths on small fixtures.
var MinParallelRows = 4096

// Parallelize rewrites p in place for intra-query parallelism at degree
// dop.
func Parallelize(p *SelectPlan, dop int) {
	if dop <= 1 {
		return
	}
	p.Root = parallelize(p.Root, dop)
}

func parallelize(n Node, dop int) Node {
	switch t := n.(type) {
	case *Scan, *IndexRange, *Filter, *Project:
		if markChain(n, dop) {
			return &Gather{Input: n, Dop: dop}
		}
		switch c := n.(type) {
		case *Filter:
			c.Input = parallelize(c.Input, dop)
		case *Project:
			c.Input = parallelize(c.Input, dop)
		}
		return n
	case *HashJoin:
		if markChain(t.Right, dop) {
			t.Dop = dop
		} else {
			t.Right = parallelize(t.Right, dop)
		}
		if markChain(t.Left, dop) {
			t.Dop = dop
		} else {
			t.Left = parallelize(t.Left, dop)
		}
		return t
	case *Aggregate:
		if markChain(t.Input, dop) {
			t.Dop = dop
		} else {
			t.Input = parallelize(t.Input, dop)
		}
		return t
	case *Sort:
		t.Input = parallelize(t.Input, dop)
		return t
	case *TopN:
		t.Input = parallelize(t.Input, dop)
		return t
	case *Distinct:
		t.Input = parallelize(t.Input, dop)
		return t
	case *Limit:
		t.Input = parallelize(t.Input, dop)
		return t
	case *DML:
		t.Input = parallelize(t.Input, dop)
		return t
	default:
		return n
	}
}

// ChainLeaf returns the partitionable leaf (Scan, IndexScan or
// IndexRange) under a chain of Filter/Project nodes, or nil when the
// subtree is not such a chain. Exported for the executor, which lowers
// every chain, at any dop, into per-morsel iterator stacks.
func ChainLeaf(n Node) Node {
	switch t := n.(type) {
	case *Scan, *IndexScan, *IndexRange:
		return t
	case *Filter:
		return ChainLeaf(t.Input)
	case *Project:
		return ChainLeaf(t.Input)
	default:
		return nil
	}
}

// markChain marks the chain's leaf with dop when the subtree is a
// partitionable chain over a big-enough leaf, reporting whether it did.
func markChain(n Node, dop int) bool {
	switch leaf := ChainLeaf(n).(type) {
	case *Scan:
		if leaf.Table.NumRows() < MinParallelRows {
			return false
		}
		leaf.Dop = dop
		return true
	case *IndexRange:
		if indexEntries(leaf.Table, leaf.Index) < MinParallelRows {
			return false
		}
		leaf.Dop = dop
		return true
	default:
		return false
	}
}
