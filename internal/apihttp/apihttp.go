// Package apihttp holds the HTTP conventions every dataproxy serving surface
// shares: the indent-2 JSON encoding of responses, the versioned /v1 error
// envelope ({"error":{"code","message","retry_after_ms"}}) with its stable
// code-per-status mapping, and the fallback wrapper that rewrites the bare
// text errors http.ServeMux generates into the same envelope.  proxyd
// (internal/serve) and proxyrouter (internal/fleet) both build on it, so a
// client sees one error contract no matter which tier answered.
package apihttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"dataproxy/pkg/client"
)

// MaxRequestBody bounds a /v1 request body on every serving surface (the
// router and each replica read bodies through http.MaxBytesReader with it).
// Real run/tune bodies are a few kilobytes, so the cap only stops hostile or
// corrupt payloads; an over-cap body is a 400 bad_request.
const MaxRequestBody = 8 << 20

// WriteJSON writes v as indent-2 JSON with the given status.  All /v1
// responses use it, which is what keeps a response's bytes deterministic for
// a given value (and lets tests pin exact encodings).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error writes the versioned /v1 error envelope with an explicit stable
// code.  A positive retryAfter is mirrored as a Retry-After header (whole
// seconds, rounded up) and as retry_after_ms in the body, so forwarding
// layers and clients read one consistent delay wherever they look.
func Error(w http.ResponseWriter, status int, code client.ErrorCode, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	WriteJSON(w, status, client.ErrorEnvelope{Error: client.ErrorDetail{
		Code:         code,
		Message:      msg,
		RetryAfterMS: retryAfter.Milliseconds(),
	}})
}

// CodeForStatus maps an HTTP status to its default stable error code:
// 400 bad_request, 404 not_found, 429 shed, 503 unavailable, anything else
// internal.  Handlers needing a non-default code for a status (the draining
// 429) call Error directly.
func CodeForStatus(status int) client.ErrorCode {
	switch status {
	case http.StatusBadRequest, http.StatusMethodNotAllowed:
		return client.CodeBadRequest
	case http.StatusNotFound:
		return client.CodeNotFound
	case http.StatusTooManyRequests:
		return client.CodeShed
	case http.StatusServiceUnavailable:
		return client.CodeUnavailable
	}
	return client.CodeInternal
}

// EnvelopeFallback rewrites the text/plain 404/405 errors http.ServeMux
// generates for unmatched routes and methods into the /v1 error envelope, so
// no path through a server can emit a bare-text error body.  Handler-made
// responses pass through untouched: they always set an application/json
// Content-Type before writing the status.
func EnvelopeFallback(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&fallbackWriter{ResponseWriter: w}, r)
	})
}

// fallbackWriter intercepts non-JSON 404/405 status writes and substitutes
// the envelope, swallowing the original text body.
type fallbackWriter struct {
	http.ResponseWriter
	intercepted bool
}

// WriteHeader substitutes the envelope for mux-generated text errors.
func (fw *fallbackWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(fw.Header().Get("Content-Type"), "application/json") {
		fw.intercepted = true
		code, msg := client.CodeNotFound, "no such route"
		if status == http.StatusMethodNotAllowed {
			code, msg = client.CodeBadRequest, "method not allowed"
		}
		Error(fw.ResponseWriter, status, code, msg, 0)
		return
	}
	fw.ResponseWriter.WriteHeader(status)
}

// Write drops the original text body once the envelope has been substituted.
func (fw *fallbackWriter) Write(p []byte) (int, error) {
	if fw.intercepted {
		return len(p), nil
	}
	return fw.ResponseWriter.Write(p)
}
