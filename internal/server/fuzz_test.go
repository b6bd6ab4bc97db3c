package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowddb/internal/sqlref"
	"crowddb/internal/storage"
)

// fuzzPaths are the ways FuzzQueryHTTP sends a statement: the buffered
// envelope, the NDJSON stream, the envelope traced and past the cache, and
// the async mode; the stream traced, and async traced past the cache.
var fuzzPaths = []struct{ path, mode string }{
	{"/v1/query", ""},
	{"/v1/query?stream=1", ""},
	{"/v1/query?nocache=1&trace=1", ""},
	{"/v1/query", "async"},
	{"/v1/query?stream=1&trace=1", ""},
	{"/v1/query?nocache=1&trace=1", "async"},
}

// FuzzQueryHTTP sends arbitrary text through /v1/query over the sqlref
// fixture and a table whose cells include NaN and ±Inf. Whatever the text,
// every buffered reply is one well-formed envelope — its rows, as many as
// it says it affected and as wide as its columns, and the tail; or a coded
// error whose status is the reply's — and never half a body; every stream
// is its header, its rows and then a done trailer counting them or an
// error line, or an error envelope before it starts.
func FuzzQueryHTTP(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		f.Add(sqlref.Generate(rng).SQL(), uint8(i))
	}
	for i, sql := range []string{
		"", "SELECT", "SELECT * FROM", "SELEC id FROM t", "SELECT id FROM t WHERE", "'",
		"SELECT id FROM t WHERE s = 'unterminated", "SELECT id FROM t WHERE id < 3 AND",
		"SELECT nosuch FROM t", "SELECT t.nosuch FROM t JOIN u ON t.k = u.k", "SELECT id FROM nosuch",
		"SELECT id, v FROM readings", "SELECT MAX(v), MIN(v) FROM readings", "SELECT id FROM readings WHERE v > 1.0",
		"SELECT id, v FROM readings ORDER BY v DESC LIMIT 2", "EXPLAIN SELECT id FROM t WHERE id < 3",
		"EXPLAIN ANALYZE SELECT k, COUNT(*) FROM t GROUP BY k", "UPDATE u SET w = 1 WHERE k = 99",
		"INSERT INTO readings VALUES (9, 1.5)", "SELECT id FROM t WHERE id = 1e400", "SELECT 1 / 0 FROM u",
	} {
		f.Add(sql, uint8(i))
	}
	srv := newRefServer(f, 1)
	if _, _, err := srv.db.ExecSQL(`CREATE TABLE readings (id INTEGER, v FLOAT)`); err != nil {
		f.Fatal(err)
	}
	readings, _ := srv.db.Catalog().Get("readings")
	for i, v := range []float64{1.5, math.NaN(), 2.5, math.Inf(1), math.Inf(-1), 4.5} {
		if err := readings.Insert(storage.Int(int64(i)), storage.Float(v)); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, sql string, path uint8) {
		p := fuzzPaths[int(path)%len(fuzzPaths)]
		body, _ := json.Marshal(queryRequest{SQL: sql, Mode: p.mode})
		rec := httptest.NewRecorder()
		srv.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(body)))
		var err error
		if strings.Contains(p.path, "stream=1") && rec.Code == http.StatusOK {
			err = checkStream(rec.Body.Bytes())
		} else {
			err = checkEnvelope(rec.Code, rec.Body.Bytes())
		}
		if err != nil {
			t.Fatalf("%s %q: status %d: %v\n%.400s", p.path, sql, rec.Code, err, rec.Body.Bytes())
		}
	})
}

// decodeOne decodes body, which must be exactly one JSON value and a
// newline, into v, refusing members v does not have.
func decodeOne(body []byte, v any) error {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return errors.New("the body does not end in a newline")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("more than one value")
	}
	return nil
}

// checkEnvelope holds a /v1/query reply to the envelope's shape.
func checkEnvelope(code int, body []byte) error {
	if code != http.StatusOK && code != http.StatusAccepted {
		var out struct {
			Error *errorBody `json:"error"`
		}
		if err := decodeOne(body, &out); err != nil {
			return err
		}
		if out.Error == nil || out.Error.Code == "" || out.Error.Status != code {
			return errors.New("an error reply without a coded error of its status")
		}
		return nil
	}
	var out struct {
		Columns   []string            `json:"columns"`
		Rows      [][]json.RawMessage `json:"rows"`
		Affected  *int                `json:"affected"`
		Message   string              `json:"message"`
		Expansion json.RawMessage     `json:"expansion"`
		Job       json.RawMessage     `json:"job"`
		Trace     json.RawMessage     `json:"trace"`
	}
	if err := decodeOne(body, &out); err != nil {
		return err
	}
	switch {
	case out.Affected == nil:
		return errors.New("no affected member")
	case out.Rows != nil && len(out.Rows) != *out.Affected:
		return errors.New("the rows are not as many as affected says")
	case code == http.StatusAccepted && out.Job == nil:
		return errors.New("a 202 without a job")
	}
	for _, row := range out.Rows {
		if len(row) != len(out.Columns) {
			return errors.New("a row not as wide as the columns")
		}
	}
	return nil
}

// checkStream holds a 200 ?stream=1 reply to the stream's shape.
func checkStream(body []byte) error {
	lines := bytes.Split(body, []byte{'\n'})
	if len(lines) < 3 || len(lines[len(lines)-1]) != 0 {
		return errors.New("a stream of fewer than two lines, or not ending in a newline")
	}
	lines = lines[:len(lines)-1]
	var header struct {
		Columns []string `json:"columns"`
	}
	if err := decodeOne(append(lines[0], '\n'), &header); err != nil {
		return err
	}
	rows := 0
	for i, line := range lines[1:] {
		var l struct {
			Row       []json.RawMessage `json:"row"`
			Done      bool              `json:"done"`
			Rows      *int              `json:"rows"`
			Error     *string           `json:"error"`
			Expansion json.RawMessage   `json:"expansion"`
			Trace     json.RawMessage   `json:"trace"`
		}
		if err := decodeOne(append(line, '\n'), &l); err != nil {
			return err
		}
		last := i == len(lines)-2
		switch {
		case l.Row != nil && !last:
			if len(l.Row) != len(header.Columns) {
				return errors.New("a row not as wide as the columns")
			}
			rows++
		case l.Done && last:
			if l.Rows == nil || *l.Rows != rows {
				return errors.New("a trailer that does not count the rows")
			}
		case l.Error != nil && last:
		default:
			return errors.New("a line out of place: rows, then a trailer or an error")
		}
	}
	return nil
}

// FuzzQueryBody sends arbitrary bytes as the body of POST /v1/query, with
// its length declared or sent chunked, to one sqlref server, and the body
// json.Unmarshal makes of them, re-encoded, to a twin. Whatever the bytes,
// nothing panics, no reply is a 5xx and every refusal is one coded error
// envelope; whenever json.Unmarshal accepts them, the server ran exactly
// the SQL and mode they hold: its reply is byte for byte the twin's.
func FuzzQueryBody(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		body, _ := json.Marshal(queryRequest{SQL: sqlref.Generate(rng).SQL()})
		f.Add(body, i%2 == 0)
	}
	for _, body := range []string{
		``, `{}`, `null`, `[]`, `"SELECT id FROM t"`, `{"sql":1}`, `{"sql":"SELECT id FROM t"`,
		`{"sql":"SELECT id FROM t"} {"sql":"DELETE FROM t"}`, `{"sql":"SELECT id FROM t"}x`,
		`{"sql":"SELECT id FROM t"}` + "\n\t ", `{"SQL":"SELECT id FROM t","Mode":"async"}`,
		`{"sql":"SELECT id FROM t","mode":"stream"}`, `{"sql":"SELECT id FROM t","sql":"SELECT k FROM t"}`,
		`{"sql":"INSERT INTO u VALUES (7, 8)","mode":"sync","extra":[1,{"a":null}]}`,
		`{"sql":"SELECT s FROM t WHERE s = 'é\ud800'"}`, "{\"sql\":\"SELECT id FROM t\xff\"}",
		`{"sql":"DELETE FROM u WHERE k = 3"}`,
	} {
		f.Add([]byte(body), false)
	}
	srv, twin := newRefServer(f, 1), newRefServer(f, 1)
	send := func(h http.Handler, body []byte, chunked bool) *httptest.ResponseRecorder {
		var r io.Reader = bytes.NewReader(body)
		if chunked {
			r = io.MultiReader(r) // hides the length
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", r))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte, chunked bool) {
		rec := send(srv.h, body, chunked)
		if rec.Code >= 500 {
			t.Fatalf("%q: status %d\n%.400s", body, rec.Code, rec.Body.Bytes())
		}
		if err := checkEnvelope(rec.Code, rec.Body.Bytes()); err != nil {
			t.Fatalf("%q: status %d: %v\n%.400s", body, rec.Code, err, rec.Body.Bytes())
		}
		var req queryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q, which json.Unmarshal refuses (%v): status %d, want 400", body, err, rec.Code)
			}
			return
		}
		canonical, _ := json.Marshal(req)
		want := send(twin.h, canonical, false)
		if rec.Code != want.Code || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%q: status %d, %.400s\nits request %q: status %d, %.400s", body, rec.Code, rec.Body.Bytes(), canonical, want.Code, want.Body.Bytes())
		}
	})
}
