package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSQLRequest fuzzes the /v1/sql request envelope, the public trust
// boundary every statement crosses. The handler's contract is total: any
// body answers either 200 with a SQLResponse or a /v1 error envelope whose
// code is one of the documented ones — never a panic, never a bare error
// and never an internal error. CI runs this briefly on every push
// (-fuzztime=10s); longer local runs: go test -fuzz=FuzzSQLRequest ./internal/server
func FuzzSQLRequest(f *testing.F) {
	seeds := []string{
		// docs/API.md: the request example and the curl quickstart.
		`{"sql": "SELECT ticket_id, LLM('Did it help?', response) AS ok FROM tickets", "client": "dashboard-7", "class": "interactive", "deadlineMs": 2000, "options": {"naive": false, "policy": "cache-ggr"}}`,
		`{"sql": "SELECT ..."}`,
		`{"sql": "SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets WHERE region = 'emea'", "options": {"trace": true}}`,
		// The removed pre-envelope bodies (top-level naive/policy).
		`{"sql": "SELECT ticket_id FROM tickets", "naive": true, "policy": "no-cache"}`,
		`{"sql": "SELECT ticket_id FROM tickets", "naive": true, "options": {"policy": "no-cache"}}`,
		// Validation edges.
		``,
		`{}`,
		`null`,
		`{"sql": "SELECT ticket_id FROM tickets", "class": "bulk"}`,
		`{"sql": "SELECT ticket_id FROM tickets", "deadlineMs": -1}`,
		`{"sql": "SELECT ticket_id FROM tickets", "deadlineMs": 1}`,
		`{"sql": "SELECT ticket_id FROM tickets", "options": {"policy": "bogus"}}`,
		`{"sql": 7}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	h, _ := sqlHandler(f)
	codes := map[string]bool{
		ErrCodeInvalidRequest: true, ErrCodeMethodNotAllowed: true, ErrCodeExecutionFailed: true,
		ErrCodeQuotaExceeded: true, ErrCodeCanceled: true, ErrCodeUnavailable: true,
		ErrCodeDeadlineExceeded: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sql", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			var resp SQLResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not a SQLResponse: %v\n%s", err, rec.Body.String())
			}
			return
		}
		var env ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d body is not an error envelope: %v\n%s", rec.Code, err, rec.Body.String())
		}
		if !codes[env.Error.Code] || env.Error.Message == "" {
			t.Fatalf("status %d: envelope %+v has no documented code or no message", rec.Code, env.Error)
		}
	})
}
