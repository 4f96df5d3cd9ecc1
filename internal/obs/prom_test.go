package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// expositionLine matches one sample line of the text exposition format.
// Quoted label values may hold any characters (spaces, braces) with \"
// and \\ escapes.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

func renderProm(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestPromExpositionValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.commits_total").Add(3)
	r.Gauge("engine.snapshot_version").Set(7)
	r.Observe("engine.commit_latency", 3*time.Millisecond)
	r.Counter("http.requests.GET /v1/jobs/{id}/shares").Add(2)
	r.Observe("http.latency.GET /v1/jobs/{id}/shares", time.Millisecond)
	r.Observe("engine.stage.wal_fsync", 2*time.Millisecond)

	out := renderProm(t, r)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE amf_engine_commits_total counter\namf_engine_commits_total 3\n",
		"# TYPE amf_engine_snapshot_version gauge\namf_engine_snapshot_version 7\n",
		"# TYPE amf_engine_commit_latency_seconds histogram\n",
		`amf_http_requests_total{route="GET /v1/jobs/{id}/shares"} 2`,
		`amf_http_request_latency_seconds_bucket{route="GET /v1/jobs/{id}/shares",le="+Inf"} 1`,
		`amf_engine_stage_latency_seconds_bucket{stage="wal_fsync",le="+Inf"} 1`,
		"amf_engine_commit_latency_seconds_sum 0.003\n",
		"amf_engine_commit_latency_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestPromHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("solve")
	h.Observe(time.Microsecond) // lands in the first bucket
	h.Observe(time.Millisecond) // a later bucket
	h.Observe(90 * time.Second) // overflow bucket
	out := renderProm(t, r)

	bucketRe := regexp.MustCompile(`amf_solve_seconds_bucket\{le="([^"]+)"\} (\d+)`)
	matches := bucketRe.FindAllStringSubmatch(out, -1)
	if len(matches) != numBuckets+1 {
		t.Fatalf("got %d bucket lines, want %d", len(matches), numBuckets+1)
	}
	prev := int64(-1)
	for _, m := range matches {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative: %d after %d (le=%s)", n, prev, m[1])
		}
		prev = n
	}
	if matches[len(matches)-1][1] != "+Inf" || prev != 3 {
		t.Fatalf("last bucket = le=%q count=%d, want +Inf count=3",
			matches[len(matches)-1][1], prev)
	}
	if !strings.Contains(out, "amf_solve_seconds_count 3\n") {
		t.Fatalf("_count missing or wrong in:\n%s", out)
	}
}

func TestPromNameSanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird name/with.bad{chars}").Inc()
	out := renderProm(t, r)
	if !strings.Contains(out, "amf_weird_name_with_bad_chars_ 1\n") {
		t.Fatalf("sanitized name missing in:\n%s", out)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	if got := promLabel("route", `a"b\c`); got != `route="a\"b\\c"` {
		t.Fatalf("promLabel = %s", got)
	}
}

func TestPromEmptyRegistry(t *testing.T) {
	if out := renderProm(t, NewRegistry()); out != "" {
		t.Fatalf("empty registry rendered %q", out)
	}
}
