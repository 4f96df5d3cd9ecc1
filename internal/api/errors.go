package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/scheduler"
	"repro/internal/serve"
)

// Stable machine-readable error codes, carried in every error response's
// "code" field. Clients should branch on these (via the Err* sentinels
// and errors.Is), not on message text or bare status codes.
const (
	// CodeInvalidArgument: the request was malformed or failed validation.
	CodeInvalidArgument = "invalid_argument"
	// CodeNotFound: the referenced job does not exist.
	CodeNotFound = "not_found"
	// CodeAlreadyExists: the job is already registered.
	CodeAlreadyExists = "already_exists"
	// CodeUnavailable: the controller cannot take mutations right now —
	// it is shutting down, its write-ahead log failed, or the request's
	// context was cancelled before the mutation committed. Retryable
	// against a healthy (or restarted) controller.
	CodeUnavailable = "unavailable"
	// CodeInternal: the server could not encode its answer (a NaN or Inf
	// in a response). Retrying against the same state fails the same way.
	CodeInternal = "internal"
)

// Sentinel errors for errors.Is against client-side failures:
//
//	err := cl.AddJob(ctx, req)
//	if errors.Is(err, api.ErrAlreadyExists) { ... }
var (
	ErrInvalidArgument = &APIError{Code: CodeInvalidArgument}
	ErrNotFound        = &APIError{Code: CodeNotFound}
	ErrAlreadyExists   = &APIError{Code: CodeAlreadyExists}
	ErrUnavailable     = &APIError{Code: CodeUnavailable}
)

// APIError is a non-2xx response from the server, carrying the stable
// code alongside the transport status and human-readable message.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("api: %d %s: %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("api: %d %s", e.StatusCode, e.Message)
}

// Is matches the Err* sentinels: a target with only a Code set matches
// any APIError carrying that code.
func (e *APIError) Is(target error) bool {
	t, ok := target.(*APIError)
	if !ok {
		return false
	}
	return (t.Code == "" || t.Code == e.Code) &&
		(t.StatusCode == 0 || t.StatusCode == e.StatusCode)
}

// Coder lets backend errors defined outside this package carry their own
// stable code — CodeFor honors it before falling back to its sentinel
// classification. The cluster package uses it (e.g. a syncing replica's
// reads are "unavailable", not "invalid_argument").
type Coder interface {
	APICode() string
}

// CodeFor classifies a backend error into its stable code. Exported for
// HTTP surfaces outside this package (the cluster router) that must speak
// the same error vocabulary.
func CodeFor(err error) string {
	var c Coder
	if errors.As(err, &c) {
		return c.APICode()
	}
	switch {
	case errors.Is(err, scheduler.ErrUnknownJob):
		return CodeNotFound
	case errors.Is(err, scheduler.ErrDuplicateJob):
		return CodeAlreadyExists
	case errors.Is(err, serve.ErrClosed),
		errors.Is(err, serve.ErrWALFailed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return CodeUnavailable
	default:
		return CodeInvalidArgument
	}
}

// StatusFor maps a stable code onto its HTTP status.
func StatusFor(code string) int {
	switch code {
	case CodeNotFound:
		return http.StatusNotFound
	case CodeAlreadyExists:
		return http.StatusConflict
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}
