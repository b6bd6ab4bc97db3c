package server

import (
	"errors"
	"net/http"

	"crowddb/internal/core"
	"crowddb/internal/jobs"
)

// Unified error envelope. Every error response from every endpoint has
// the shape
//
//	{"error": {"code": "budget_exceeded", "message": "...", "status": 402}}
//
// Code is the stable, machine-readable contract; message text and status
// phrasing may change between releases, codes may only be added. The
// code table is documented in DESIGN.md §16.
const (
	// CodeBadRequest covers malformed bodies, parse errors, unknown
	// columns, and other client mistakes without a more specific code.
	CodeBadRequest = "bad_request"
	// CodeNotFound is an unknown job, table, or route resource.
	CodeNotFound = "not_found"
	// CodeNoSuchTable is specifically core.ErrNoSuchTable: the expansion
	// target table does not exist.
	CodeNoSuchTable = "no_such_table"
	// CodeBudgetExceeded maps core.ErrBudgetExceeded (402).
	CodeBudgetExceeded = "budget_exceeded"
	// CodeQueueFull maps jobs.ErrQueueFull and the HTTP admission
	// semaphore (503 + Retry-After).
	CodeQueueFull = "queue_full"
	// CodeExpansionInFlight maps core.ErrExpansionInFlight (409).
	CodeExpansionInFlight = "expansion_in_flight"
	// CodeExpansionFailed maps core.ErrExpansionFailed (500).
	CodeExpansionFailed = "expansion_failed"
	// CodeIndexOnVirtualColumn maps core.ErrIndexOnVirtualColumn (400).
	CodeIndexOnVirtualColumn = "index_on_virtual_column"
	// CodeNoDataDir maps core.ErrNoDataDir: snapshot requested on a
	// database opened without durability (409).
	CodeNoDataDir = "no_data_dir"
	// CodeUnencodableValue is a result holding a value JSON cannot carry
	// (NaN, ±Inf): the message names the row and column (500).
	CodeUnencodableValue = "unencodable_value"
	// CodeRequestTooLarge is a request body over the server's 1 MiB
	// bound (413).
	CodeRequestTooLarge = "request_too_large"
	// CodeInternal is an unclassified server-side failure (500).
	CodeInternal = "internal"
)

// errorBody is the envelope payload.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

// writeError emits the unified error envelope. A 503 carries
// Retry-After: the condition is load, not a broken request.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]errorBody{
		"error": {Code: code, Message: err.Error(), Status: status},
	})
}

// classifyErr maps an error to its (status, code) pair via the core and
// jobs sentinels. Unmatched errors default to the caller's fallback.
func classifyErr(err error, fallbackStatus int, fallbackCode string) (int, string) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusServiceUnavailable, CodeQueueFull
	case errors.Is(err, core.ErrBudgetExceeded):
		return http.StatusPaymentRequired, CodeBudgetExceeded
	case errors.Is(err, core.ErrExpansionInFlight):
		return http.StatusConflict, CodeExpansionInFlight
	case errors.Is(err, core.ErrNoSuchTable):
		return http.StatusNotFound, CodeNoSuchTable
	case errors.Is(err, core.ErrIndexOnVirtualColumn):
		return http.StatusBadRequest, CodeIndexOnVirtualColumn
	case errors.Is(err, core.ErrExpansionFailed):
		return http.StatusInternalServerError, CodeExpansionFailed
	case errors.Is(err, core.ErrNoDataDir):
		return http.StatusConflict, CodeNoDataDir
	default:
		return fallbackStatus, fallbackCode
	}
}

// writeQueryError classifies a query failure: a full expansion queue is
// a retryable overload (503), a budget-capped expansion is a payment
// problem (402), a failed crowd expansion is a server-side fault (500);
// CREATE INDEX on a registered-but-unexpanded column is the client's
// sequencing mistake (400, explicitly — it must never fall into the 500
// bucket); everything else (parse errors, unknown tables/columns) is
// the client's query (400).
func writeQueryError(w http.ResponseWriter, err error) {
	status, code := classifyErr(err, http.StatusBadRequest, CodeBadRequest)
	writeError(w, status, code, err)
}
