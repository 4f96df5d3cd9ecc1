package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// TestWriteJSONNonFinite: a response holding a NaN answers 500 with the
// internal error body, not the intended 200 with an empty body.
func TestWriteJSONNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, RouterStatsResponse{WeightSum: math.NaN()})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q does not decode: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || body["code"] != api.CodeInternal || body["error"] == "" {
		t.Fatalf("got %d %v, want 500 %q", rec.Code, body, api.CodeInternal)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, RouterStatsResponse{WeightSum: 2})
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 || rec.Body.Bytes()[rec.Body.Len()-1] != '\n' {
		t.Fatalf("finite: got %d %q", rec.Code, rec.Body)
	}
}
