package exec

import (
	"encoding/binary"
	"testing"
)

// FuzzKeyTable drives the typed key table with arbitrary key sequences
// and holds it to a Go map: numbers are handed out in first-insertion
// order, exactly once a key, and found again through every doubling; a
// key never inserted is not found; and the join's chains (chainRows) list
// each key's rows, all of them, ascending. The first byte picks how the
// rest becomes keys: 8-byte words or single bytes (few distinct keys,
// long chains), as they are or shifted so that they differ only in bits
// the hash has to bring down.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 7, 7, 7, 0, 255, 7, 0, 0, 3})
	f.Add(append([]byte{2}, make([]byte, 64)...))
	seq := []byte{3}
	for i := 0; i < 300; i++ { // consecutive ids, past several doublings
		seq = append(seq, byte(i), byte(i>>8))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, data := data[0], data[1:]
		var keys []uint64
		if mode&1 == 0 {
			for ; len(data) >= 8; data = data[8:] {
				keys = append(keys, binary.LittleEndian.Uint64(data))
			}
		} else {
			for _, b := range data {
				keys = append(keys, uint64(b))
			}
		}
		if mode&2 != 0 {
			for i := range keys {
				keys[i] <<= 40
			}
		}

		var table keyTable
		numbers := map[uint64]int32{}
		for _, key := range keys {
			want, seen := numbers[key]
			if !seen {
				want = int32(len(numbers))
				numbers[key] = want
			}
			if n, added := table.insert(key); n != want || added == seen {
				t.Fatalf("insert(%#x) = %d, %v; want %d, %v", key, n, added, want, !seen)
			}
		}
		for key, want := range numbers {
			if n := table.find(key); n != want {
				t.Fatalf("find(%#x) = %d, want %d", key, n, want)
			}
			if _, taken := numbers[key+1]; !taken {
				if n := table.find(key + 1); n != -1 {
					t.Fatalf("find(%#x) = %d for a key never inserted", key+1, n)
				}
			}
		}
		if len(table.keys) != len(numbers) {
			t.Fatalf("%d keys numbered, %d distinct", len(table.keys), len(numbers))
		}

		rows := map[uint64][]int32{}
		for r, key := range keys {
			rows[key] = append(rows[key], int32(r))
		}
		var chained keyTable
		byKey, next := chainRows(len(keys), func(r int) (int32, bool) { return chained.insert(keys[r]) })
		if len(byKey) != len(rows) {
			t.Fatalf("%d chains, %d distinct keys", len(byKey), len(rows))
		}
		for key, want := range rows {
			k := byKey[chained.find(key)]
			var got []int32
			for r := k.head; r >= 0; r = next[r] {
				got = append(got, r)
			}
			if int(k.n) != len(want) || len(got) != len(want) {
				t.Fatalf("key %#x: chain of %d rows counted as %d, want %d", key, len(got), k.n, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("key %#x: chain %v, want %v", key, got, want)
				}
			}
		}
	})
}
