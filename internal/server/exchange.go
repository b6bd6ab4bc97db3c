package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sync"

	"crowddb/internal/core"
)

// exchange is one request's working memory, from the middleware to the
// answer: the ResponseWriter the handler writes to (with the status the
// metrics and the log read), the body's bytes, the decoded /v1/query
// request, the statement's answer and the encoder of its envelope. None
// of it outlives the request, so instrument takes an exchange from
// exchanges and gives it back when the handler returns: a statement's
// trip through the server allocates what its answer and the caches keep,
// not a decoder, a stream and an encoder of its own.
type exchange struct {
	statusRecorder
	body  []byte
	query queryRequest
	ans   core.RowStream
	rows  rowEncoder
	// logTail is the request log line's last two attributes, status and
	// duration, as one unnamed group: a slog.Record holds five attributes
	// inline, and a sixth would spill into a slice of its own. A handler
	// that keeps a Record past Handle must copy the group's attributes
	// (slog's own format the line before Handle returns).
	logTail [2]slog.Attr
}

// exchanges recycles exchanges across requests.
var exchanges = sync.Pool{New: func() any { return newExchange() }}

func newExchange() *exchange {
	x := &exchange{}
	x.rows.enc = json.NewEncoder(&x.rows.text)
	return x
}

// maxKeptBody bounds the body buffer an exchange keeps for the next
// request: a rare large body is read into a buffer of its own size, which
// is dropped with the request rather than parked in the pool.
const maxKeptBody = 64 << 10

// reset forgets the request: the connection's writer, the request's SQL,
// the answer's executor tree and a cache entry's batches. The answer has
// been closed by its handler.
func (x *exchange) reset() {
	x.statusRecorder = statusRecorder{}
	if cap(x.body) > maxKeptBody {
		x.body = nil
	}
	x.body = x.body[:0]
	x.query = queryRequest{}
	x.ans = core.RowStream{}
}

// maxBodyBytes bounds a request body: a larger one is refused with 413
// request_too_large before it is buffered.
const maxBodyBytes = 1 << 20

// tooLargeError is a body over maxBodyBytes: a 413, not a 400.
type tooLargeError struct{ error }

// readBody reads r's body, at most maxBodyBytes of it, into x.body. A body
// that declares its length is refused on that length and read into a
// buffer of that size, and net/http reads no more than it declares; only
// a body of unknown length (chunked) is read through http.MaxBytesReader,
// which allocates a reader per request.
func (x *exchange) readBody(r *http.Request) error {
	if n := r.ContentLength; n >= 0 {
		if n > maxBodyBytes {
			return tooLargeError{fmt.Errorf("server: request body of %d bytes is over %d", n, maxBodyBytes)}
		}
		if int64(cap(x.body)) < n {
			x.body = make([]byte, n)
		}
		x.body = x.body[:n]
		_, err := io.ReadFull(r.Body, x.body)
		return err
	}
	body := http.MaxBytesReader(x, r.Body, maxBodyBytes)
	b := x.body[:0]
	defer func() { x.body = b }()
	for {
		b = slices.Grow(b, 512)
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return tooLargeError{fmt.Errorf("server: request body over %d bytes", tooLarge.Limit)}
			}
			return err
		}
	}
}

// decodeBody decodes r's JSON body into v: one JSON value, of which
// encoding/json copies every string out of the body's buffer. Anything
// but white space after it is a bad request, not a second statement to
// ignore. On failure it writes the error envelope and returns false.
func (x *exchange) decodeBody(r *http.Request, v any) bool {
	err := x.readBody(r)
	if err == nil {
		err = json.Unmarshal(x.body, v)
	}
	if err == nil {
		return true
	}
	if errors.As(err, new(tooLargeError)) {
		writeError(x, http.StatusRequestEntityTooLarge, CodeRequestTooLarge, err)
	} else {
		writeError(x, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("server: bad request body: %w", err))
	}
	return false
}
