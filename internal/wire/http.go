package wire

import (
	"encoding/json"
	"io"
	"net/http"

	"ribbon/api"
)

// maxBodyBytes caps every JSON request body either binary accepts.
const maxBodyBytes = 1 << 20

// WriteJSON answers status with v encoded compactly. v is marshalled
// before the header is written, so a value that cannot be encoded answers
// 500 internal rather than a truncated 200.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteError(w, &api.Error{Code: api.ErrInternal, Message: "encode response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(append(body, '\n'))
}

// WriteError answers the error envelope with the status its code maps to.
// Every 503 carries Retry-After: 1. Overloaded means a bounded queue (a
// server worker pool, or the gateway's instance queues) is momentarily
// full and frees within a service time or two, so one second is an honest
// wall-clock hint the client folds into its jittered backoff.
func WriteError(w http.ResponseWriter, e *api.Error) {
	status := statusFor(e.Code)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, api.ErrorResponse{Error: e})
}

// statusFor maps error codes to HTTP statuses.
func statusFor(code api.ErrorCode) int {
	switch code {
	case api.ErrNotFound:
		return http.StatusNotFound
	case api.ErrJobFinished:
		return http.StatusConflict
	case api.ErrOverloaded:
		return http.StatusServiceUnavailable
	case api.ErrInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// Decode parses the request body into v strictly: at most 1 MiB, no
// unknown fields, and nothing but whitespace after the one JSON value.
// Each violation is an invalid_request error for the caller to answer.
func Decode(w http.ResponseWriter, r *http.Request, v any) *api.Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &api.Error{Code: api.ErrInvalidRequest, Message: "bad request body: " + err.Error()}
	}
	// Token, unlike More, also refuses a stray ']' or '}' after the value,
	// and reading on to EOF enforces the size cap on the whole body.
	if _, err := dec.Token(); err != io.EOF {
		return &api.Error{Code: api.ErrInvalidRequest, Message: "trailing data after JSON body"}
	}
	return nil
}
