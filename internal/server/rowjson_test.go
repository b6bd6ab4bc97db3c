package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/jobs"
	"crowddb/internal/storage"
)

// queryResponse is the /v1/query envelope as the server encoded it while
// results were boxed rows — json.Encoder over this struct — kept as the
// reference the vector encoder is held to, and as what the tests decode
// responses into.
type queryResponse struct {
	Columns   []string              `json:"columns,omitempty"`
	Rows      [][]any               `json:"rows,omitempty"`
	Affected  int                   `json:"affected"`
	Message   string                `json:"message,omitempty"`
	Expansion *core.ExpansionReport `json:"expansion,omitempty"`
	Job       *jobs.Status          `json:"job,omitempty"`
	Trace     *core.QueryTrace      `json:"trace,omitempty"`
}

func valueToJSON(v storage.Value) any {
	switch v.Kind() {
	case storage.KindBool:
		b, _ := v.AsBool()
		return b
	case storage.KindInt:
		i, _ := v.AsInt()
		return i
	case storage.KindFloat:
		f, _ := v.AsFloat()
		return f
	case storage.KindText:
		t, _ := v.AsText()
		return t
	default:
		return nil
	}
}

// referenceBody is the old buffered body: the boxed rows as [][]any.
func referenceBody(t *testing.T, res *core.Result, tail queryTail) []byte {
	t.Helper()
	out := queryResponse{Expansion: tail.Expansion, Job: tail.Job, Trace: tail.Trace}
	if res != nil {
		out.Columns, out.Affected, out.Message = res.Columns, res.Affected, res.Message
		rows := storage.RowsOf(res.Batches)
		out.Rows = make([][]any, len(rows))
		for i, row := range rows {
			out.Rows[i] = make([]any, len(row))
			for j, v := range row {
				out.Rows[i][j] = valueToJSON(v)
			}
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(out); err != nil {
		t.Fatalf("json.Encoder: %v", err)
	}
	return want.Bytes()
}

// resultAnswer reads a Result as the envelope reads a stream.
type resultAnswer struct {
	res  *core.Result
	next int
}

func (a *resultAnswer) Columns() []string { return a.res.Columns }
func (a *resultAnswer) Affected() int     { return a.res.Affected }
func (a *resultAnswer) Message() string   { return a.res.Message }

func (a *resultAnswer) NextBatch() (*storage.Batch, error) {
	if a.next == len(a.res.Batches) {
		return nil, nil
	}
	a.next++
	return &a.res.Batches[a.next-1], nil
}

// answerOf is res as an answer, nil for nil.
func answerOf(res *core.Result) answer {
	if res == nil {
		return nil
	}
	return &resultAnswer{res: res}
}

// encoderRows is every kind, NULL, the float formats on both sides of
// encoding/json's exponent thresholds, and the text it escapes.
var encoderRows = []storage.Row{
	{},
	{storage.Null()},
	{storage.Int(0), storage.Int(-1), storage.Int(math.MaxInt64), storage.Int(math.MinInt64)},
	{storage.Bool(true), storage.Bool(false), storage.Null(), storage.Int(7)},
	{storage.Float(0), storage.Float(math.Copysign(0, -1)), storage.Float(3), storage.Float(-2.5), storage.Float(146305)},
	{storage.Float(1e21), storage.Float(9.99999e20), storage.Float(1e-7), storage.Float(1e-6), storage.Float(-1.5e-9), storage.Float(1e100), storage.Float(1e-100)},
	{storage.Float(0.1), storage.Float(1.0 / 3), storage.Float(math.MaxFloat64), storage.Float(math.SmallestNonzeroFloat64), storage.Float(4.5)},
	{storage.Text(""), storage.Text("plain"), storage.Text(`quo"te and back\slash`), storage.Text("<script>&amp;</script>")},
	{storage.Text("line sep   "), storage.Text("tab\tnl\ncr\r\x00\x1f\b\f"), storage.Text("bad\xffutf8\xc3"), storage.Text("héllo ✓ 🎬")},
	{storage.Int(12), storage.Text("mixed"), storage.Float(2.25), storage.Null(), storage.Bool(true)},
}

// encoderBatches is encoderRows as batches: one of a single row per row —
// typed vectors — and, per width that repeats, one of all the rows of that
// width, whose columns mix kinds (boxed vectors, and typed ones with NULLs)
// and which is read under a selection that is not dense.
func encoderBatches() []storage.Batch {
	var out []storage.Batch
	byWidth := map[int][]storage.Row{}
	for _, row := range encoderRows {
		out = append(out, storage.BatchesOf([]storage.Row{row})...)
		byWidth[len(row)] = append(byWidth[len(row)], row, row)
	}
	for w := 0; w < 8; w++ {
		if rows := byWidth[w]; len(rows) > 2 {
			b := storage.BatchesOf(rows)[0]
			sel := make([]int32, 0, len(rows)/2+1)
			for i := len(rows) - 1; i >= 0; i -= 2 {
				sel = append(sel, int32(i))
			}
			b.Sel = sel
			out = append(out, b)
		}
	}
	return out
}

// TestRowEncoderMatchesJSONEncoder holds the vector encoder to the bytes
// encoding/json produced while answers were boxed: the NDJSON row lines to
// json.Encoder's map[string]any{"row": []any{…}}, and the buffered
// /v1/query body to its queryResponse{Rows [][]any} — rows of every kind,
// an empty result ("rows" omitted), DDL and DML answers, and the
// expansion, job and trace members.
func TestRowEncoderMatchesJSONEncoder(t *testing.T) {
	enc := &newExchange().rows
	for _, batch := range encoderBatches() {
		var want bytes.Buffer
		for _, row := range batch.AppendRows(nil) {
			vals := make([]any, len(row))
			for i, v := range row {
				vals[i] = valueToJSON(v)
			}
			if err := json.NewEncoder(&want).Encode(map[string]any{"row": vals}); err != nil {
				t.Fatalf("%v: json.Encoder: %v", row, err)
			}
		}
		got, err := enc.lines(&batch)
		if err != nil {
			t.Fatalf("%v: %v", batch.AppendRows(nil), err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("rows %v\n got %q\nwant %q", batch.AppendRows(nil), got, want.Bytes())
		}
	}

	wide := make([]string, 8)
	for i := range wide {
		wide[i] = strings.Repeat("c", i) + `<"col">`
	}
	report := &core.ExpansionReport{Table: "movies", Column: "is_<comedy>", Method: "SPACE", Filled: 12, Cost: 1.25,
		Steps: core.StepSeconds{Train: 1e-7, Fill: 0.5}}
	job := &jobs.Status{ID: "job-7", Key: "movies.is_comedy", State: jobs.StateSampling, Origin: core.OriginDemand}
	trace := &core.QueryTrace{SQL: "SELECT <1>", ParseUS: 3, PlanUS: 4, ExecUS: 5, TotalUS: 12, Rows: 2, Plan: []string{"Project", "  Scan(t)"}}
	envelopes := []struct {
		name string
		res  *core.Result
		tail queryTail
	}{
		{"job only", nil, queryTail{Job: job}},
		{"nothing", nil, queryTail{}},
		{"ddl", &core.Result{Message: `created table "t" <3 columns>`}, queryTail{}},
		{"dml", &core.Result{Affected: 200}, queryTail{}},
		{"empty select", &core.Result{Columns: wide[:3]}, queryTail{}},
		{"empty select, traced", &core.Result{Columns: wide[:3]}, queryTail{Trace: trace}},
		{"expansion and trace", &core.Result{Columns: wide[:1], Batches: storage.BatchesOf([]storage.Row{{storage.Int(1)}, {storage.Null()}}), Affected: 2},
			queryTail{Expansion: report, Trace: trace}},
	}
	for _, batch := range encoderBatches() {
		envelopes = append(envelopes, struct {
			name string
			res  *core.Result
			tail queryTail
		}{"rows", &core.Result{Columns: wide[:len(batch.Cols)], Batches: []storage.Batch{batch}, Affected: len(batch.Sel)}, queryTail{}})
	}
	// Every batch at once: a result of several batches is one "rows" array.
	for w, n := 0, 0; w < 8; w++ {
		var res core.Result
		for _, batch := range encoderBatches() {
			if len(batch.Cols) == w {
				res.Batches = append(res.Batches, batch)
				n += len(batch.Sel)
			}
		}
		res.Columns, res.Affected = wide[:w], n
		envelopes = append(envelopes, struct {
			name string
			res  *core.Result
			tail queryTail
		}{"several batches", &res, queryTail{Expansion: report}})
	}
	for _, c := range envelopes {
		got, err := enc.envelope(answerOf(c.res), c.tail)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := referenceBody(t, c.res, c.tail); !bytes.Equal(got, want) {
			t.Errorf("%s\n got %q\nwant %q", c.name, got, want)
		}
	}

	// What json.Encoder refuses, the encoder refuses — handing back the
	// lines before the row, and naming row and column in the envelope's
	// error.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := json.NewEncoder(&bytes.Buffer{}).Encode(map[string]any{"row": []any{f}}); err == nil {
			t.Fatalf("json.Encoder accepted %v", f)
		}
		batch := storage.BatchesOf([]storage.Row{{storage.Int(1), storage.Float(0.5)}, {storage.Int(2), storage.Float(f)}, {storage.Int(3), storage.Float(1)}})[0]
		if lines, err := enc.lines(&batch); err == nil || string(lines) != `{"row":[1,0.5]}`+"\n" {
			t.Errorf("%v: lines %q, error %v: want the first row and an error", f, lines, err)
		}
		_, err := enc.envelope(answerOf(&core.Result{Columns: []string{"id", "reading"}, Batches: []storage.Batch{batch}}), queryTail{})
		if err == nil || !strings.Contains(err.Error(), `row 1, column "reading"`) {
			t.Errorf("%v: envelope error %v: want one naming row 1 and column reading", f, err)
		}
	}
}

// readingsWithNaN adds a table whose third row holds a NaN.
func readingsWithNaN(t *testing.T, s *Server) {
	t.Helper()
	if _, _, err := s.db.ExecSQL(`CREATE TABLE readings (id INTEGER, v FLOAT)`); err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.db.Catalog().Get("readings")
	for i, v := range []float64{1.5, 2.5, math.NaN(), 4.5} {
		if err := tbl.Insert(storage.Int(int64(i)), storage.Float(v)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamEndsAtUnencodableValue pins what a NaN does to a stream: the
// rows before it arrive, and then an error line naming the value ends the
// stream — no row of it, no trailer — as every stream ends in a trailer or
// an error.
func TestStreamEndsAtUnencodableValue(t *testing.T) {
	s, url := joinServer(t)
	readingsWithNaN(t, s)
	code, lines := streamLines(t, url, `SELECT id, v FROM readings`)
	if code != http.StatusOK || len(lines) != 4 {
		t.Fatalf("status %d, lines %v: want the header, the two rows before the NaN and an error", code, lines)
	}
	if msg, _ := lines[3]["error"].(string); !strings.Contains(msg, "NaN") {
		t.Fatalf("last line = %v, want an error naming the NaN", lines[3])
	}
	if _, ok := lines[0]["columns"]; !ok {
		t.Fatalf("header = %v", lines[0])
	}
	if row, _ := lines[2]["row"].([]any); len(row) != 2 || row[0] != float64(1) || row[1] != 2.5 {
		t.Fatalf("last row = %v", lines[2])
	}
}

// TestBufferedAnswerWithUnencodableValueIsAnError: the buffered answer to
// the same query used to be a 200 with an empty body — the status line was
// out before json.Encoder refused the NaN. It is the error envelope now,
// naming the cell, and the rows JSON can carry are still served.
func TestBufferedAnswerWithUnencodableValueIsAnError(t *testing.T) {
	s, url := joinServer(t)
	readingsWithNaN(t, s)
	body, _ := json.Marshal(queryRequest{SQL: `SELECT id, v FROM readings`})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error errorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("status %d, body does not decode: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || out.Error.Code != CodeUnencodableValue || out.Error.Status != resp.StatusCode ||
		!strings.Contains(out.Error.Message, `row 2, column "v"`) || !strings.Contains(out.Error.Message, "NaN") {
		t.Fatalf("status %d, error %+v: want a 500 %s naming row 2, column v and the NaN", resp.StatusCode, out.Error, CodeUnencodableValue)
	}
	if code, res := postQuery(t, url, `SELECT id, v FROM readings WHERE id <> 2`, "sync"); code != http.StatusOK || len(res.Rows) != 3 {
		t.Fatalf("the rows around the NaN: status %d, %v", code, res.Rows)
	}
}

// TestRecordedBodies holds one buffered and one streamed answer — a join
// with integer, text, float, boolean and NULL cells, a computed column
// whose name json escapes — to the bytes the server sent for them before
// results were columnar, except that the computed column is named with its
// float literal as written (4.0), which once printed as an integer.
func TestRecordedBodies(t *testing.T) {
	_, url := joinServer(t)
	const sql = `SELECT m.movie_id, m.name, c.role, m.year / 4.0, m.year > 1995, c.credit_id + NULL FROM movies m JOIN credits c ON m.movie_id = c.movie WHERE m.year >= 1997 ORDER BY m.year DESC, c.role LIMIT 5`
	const columns = `"columns":["movie_id","name","role","(m.year / 4.0)","(m.year \u003e 1995)","(c.credit_id + NULL)"]`
	rows := []string{
		`[9,"movie-09","director",499.75,true,null]`,
		`[9,"movie-09","writer",499.75,true,null]`,
		`[8,"movie-08","director",499.5,true,null]`,
		`[8,"movie-08","writer",499.5,true,null]`,
		`[7,"movie-07","director",499.25,true,null]`,
	}
	stream := "{" + columns + "}\n"
	for _, row := range rows {
		stream += `{"row":` + row + "}\n"
	}
	stream += `{"done":true,"rows":5}` + "\n"
	for _, c := range []struct{ path, want string }{
		{"/v1/query", "{" + columns + `,"rows":[` + strings.Join(rows, ",") + `],"affected":5}` + "\n"},
		{"/v1/query?nocache=1", "{" + columns + `,"rows":[` + strings.Join(rows, ",") + `],"affected":5}` + "\n"},
		{"/v1/query", "{" + columns + `,"rows":[` + strings.Join(rows, ",") + `],"affected":5}` + "\n"}, // the hit
		{"/v1/query?stream=1", stream},
	} {
		body, _ := json.Marshal(queryRequest{SQL: sql})
		resp, err := http.Post(url+c.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(got) != c.want {
			t.Errorf("%s: status %d, error %v\n got %q\nwant %q", c.path, resp.StatusCode, err, got, c.want)
		}
	}
}
