package exec

import (
	"fmt"
	"testing"

	"crowddb/internal/storage"
)

// A batch held across goroutines keeps saying which physical row each of
// its cells is: by Lo while its vectors are pinned views of a scan window,
// by a copy of the selected IDs once its cells are compacted or the IDs
// were the producer's scratch (the index form, even with no column).
func TestHeldBatchKeepsRowIDs(t *testing.T) {
	rowIDs := func(b *storage.Batch) string {
		var ids []int
		for _, i := range b.Sel {
			ids = append(ids, b.RowID(int(i)))
		}
		return fmt.Sprint(ids)
	}
	pinned := storage.Vector{Kind: storage.KindInt, Ints: []int64{10, 11, 12, 13}, Pinned: true}
	owned := storage.Vector{Kind: storage.KindInt, Ints: []int64{10, 11, 12, 13}}
	scratch := []int{900, 7, 512, 33}
	for name, c := range map[string]struct {
		b    storage.Batch
		want string
	}{
		"scan window, pinned":    {storage.Batch{N: 4, Sel: []int32{1, 3}, Cols: []storage.Vector{pinned}, Lo: 4096}, "[4097 4099]"},
		"scan window, compacted": {storage.Batch{N: 4, Sel: []int32{1, 3}, Cols: []storage.Vector{owned}, Lo: 4096}, "[4097 4099]"},
		"index form":             {storage.Batch{N: 4, Sel: []int32{0, 2, 3}, Cols: []storage.Vector{owned}, IDs: scratch}, "[900 512 33]"},
		"index form, no column":  {storage.Batch{N: 4, Sel: storage.IdentitySel(4), IDs: scratch}, "[900 7 512 33]"},
	} {
		res := &morselResult{}
		b := c.b
		res.hold(&b)
		held := &res.batches[0].Batch
		if got := rowIDs(held); got != c.want {
			t.Errorf("%s: held batch names rows %s, want %s", name, got, c.want)
		}
		if len(held.IDs) > 0 && &held.IDs[0] == &scratch[0] {
			t.Errorf("%s: the held batch aliases its producer's ID scratch", name)
		}
	}
}
