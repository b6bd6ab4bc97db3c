package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"crowddb/internal/storage"
)

// TestRowEncoderMatchesJSONEncoder holds the NDJSON row lines to the bytes
// json.Encoder produced for map[string]any{"row": []any{…}} before the
// stream stopped going through it: every kind, the float formats on both
// sides of encoding/json's exponent thresholds, and the text it escapes.
func TestRowEncoderMatchesJSONEncoder(t *testing.T) {
	rows := []storage.Row{
		{},
		{storage.Null()},
		{storage.Int(0), storage.Int(-1), storage.Int(math.MaxInt64), storage.Int(math.MinInt64)},
		{storage.Bool(true), storage.Bool(false), storage.Null(), storage.Int(7)},
		{storage.Float(0), storage.Float(math.Copysign(0, -1)), storage.Float(3), storage.Float(-2.5), storage.Float(146305)},
		{storage.Float(1e21), storage.Float(9.99999e20), storage.Float(1e-7), storage.Float(1e-6), storage.Float(-1.5e-9), storage.Float(1e100), storage.Float(1e-100)},
		{storage.Float(0.1), storage.Float(1.0 / 3), storage.Float(math.MaxFloat64), storage.Float(math.SmallestNonzeroFloat64), storage.Float(4.5)},
		{storage.Text(""), storage.Text("plain"), storage.Text(`quo"te and back\slash`), storage.Text("<script>&amp;</script>")},
		{storage.Text("line sep "), storage.Text("tab\tnl\ncr\r\x00\x1f"), storage.Text("bad\xffutf8\xc3"), storage.Text("héllo ✓ 🎬")},
		{storage.Int(12), storage.Text("mixed"), storage.Float(2.25), storage.Null(), storage.Bool(true)},
	}
	enc := newRowEncoder()
	for _, row := range rows {
		vals := make([]any, len(row))
		for i, v := range row {
			vals[i] = valueToJSON(v)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"row": vals}); err != nil {
			t.Fatalf("%v: json.Encoder: %v", row, err)
		}
		got, err := enc.line(row)
		if err != nil {
			t.Fatalf("%v: %v", row, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("row %v\n got %q\nwant %q", row, got, want.Bytes())
		}
	}
	// What json.Encoder refuses, the row encoder refuses.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := json.NewEncoder(&bytes.Buffer{}).Encode(map[string]any{"row": []any{f}}); err == nil {
			t.Fatalf("json.Encoder accepted %v", f)
		}
		if line, err := enc.line(storage.Row{storage.Int(1), storage.Float(f)}); err == nil {
			t.Errorf("%v encoded as %q", f, line)
		}
	}
}

// TestStreamEndsAtUnencodableValue pins what a NaN does to a stream: the
// rows before it arrive, and then the stream just ends — no row, no error
// object, no trailer — as when json.Encoder refused the row.
func TestStreamEndsAtUnencodableValue(t *testing.T) {
	s, url := joinServer(t)
	if _, _, err := s.db.ExecSQL(`CREATE TABLE readings (id INTEGER, v FLOAT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.db.Catalog().Get("readings")
	for i, v := range []float64{1.5, 2.5, math.NaN(), 4.5} {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Float(v)); err != nil {
			t.Fatal(err)
		}
	}
	code, lines := streamLines(t, url, `SELECT id, v FROM readings`)
	if code != http.StatusOK || len(lines) != 3 {
		t.Fatalf("status %d, lines %v: want the header and the two rows before the NaN", code, lines)
	}
	if _, ok := lines[0]["columns"]; !ok {
		t.Fatalf("header = %v", lines[0])
	}
	if row, _ := lines[2]["row"].([]any); len(row) != 2 || row[0] != float64(1) || row[1] != 2.5 {
		t.Fatalf("last row = %v", lines[2])
	}
}
