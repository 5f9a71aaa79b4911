package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testClient(t *testing.T, s *Server) (*httptest.Server, *http.Client) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, ts.Client()
}

func postJSON(t *testing.T, c *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, c *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

const submitBody = `{"run":{"model":"resnet18","platform":"P1",` +
	`"parallelism":"ddp","trace_batch":32,"global_batch":64}}`

func TestHTTPSubmitLifecycle(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts, c := testClient(t, s)

	resp, data := postJSON(t, c, ts.URL+"/v1/jobs", submitBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var a Ack
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || a.Digest == "" || a.Coalesced {
		t.Fatalf("ack: %+v", a)
	}

	// Poll the result endpoint: 409 while not terminal, then 200.
	var res Result
	deadline := time.Now().Add(time.Minute)
	for {
		resp, data = getJSON(t, c, ts.URL+"/v1/jobs/"+a.ID+"/result")
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatal(err)
			}
			break
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("result poll: %d %s", resp.StatusCode, data)
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out polling result")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if res.State != StateDone || res.EventDigest == "" || res.Events == 0 {
		t.Fatalf("result: %+v", res)
	}

	resp, report := getJSON(t, c, ts.URL+"/v1/jobs/"+a.ID+"/report")
	if resp.StatusCode != http.StatusOK ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("report: %d %q", resp.StatusCode,
			resp.Header.Get("Content-Type"))
	}
	if !bytes.Contains(report, []byte(res.EventDigest)) {
		t.Fatal("report does not embed the event digest")
	}
	if bytes.Contains(report, []byte(`"trace_cache"`)) {
		t.Fatal("served report leaks the store-wide trace_cache section")
	}

	resp, data = getJSON(t, c, ts.URL+"/v1/jobs/"+a.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Kind != KindSimulate {
		t.Fatalf("status body: %+v", st)
	}
}

func TestHTTPEventsStreamNDJSON(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts, c := testClient(t, s)

	_, data := postJSON(t, c, ts.URL+"/v1/jobs", submitBody)
	var a Ack
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Get(ts.URL + "/v1/jobs/" + a.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	// The stream must deliver queued → running → done and then close.
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		states = append(states, ev.State)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) < 3 || states[0] != StateQueued ||
		states[len(states)-1] != StateDone {
		t.Fatalf("event states %v", states)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	s := New(Options{Workers: 1, MaxQueue: 1})
	defer s.Close()
	ts, c := testClient(t, s)

	for name, tc := range map[string]struct {
		method, path, body string
		wantCode           int
	}{
		"bad json":       {"POST", "/v1/jobs", "{", http.StatusBadRequest},
		"unknown field":  {"POST", "/v1/jobs", `{"runn":{}}`, http.StatusBadRequest},
		"invalid spec":   {"POST", "/v1/jobs", `{"run":{"platform":"P1"}}`, http.StatusBadRequest},
		"unknown status": {"GET", "/v1/jobs/nope", "", http.StatusNotFound},
		"unknown result": {"GET", "/v1/jobs/nope/result", "", http.StatusNotFound},
		"unknown report": {"GET", "/v1/jobs/nope/report", "", http.StatusNotFound},
		"unknown events": {"GET", "/v1/jobs/nope/events", "", http.StatusNotFound},
		"unknown cancel": {"DELETE", "/v1/jobs/nope", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path,
			strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: %d %s, want %d", name, resp.StatusCode, data,
				tc.wantCode)
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: body %q is not an error document", name, data)
		}
	}
}

func TestHTTPRetryAfterOnOverload(t *testing.T) {
	s := newIdle(Options{MaxQueue: 1})
	defer s.Close()
	ts, c := testClient(t, s)

	resp, data := postJSON(t, c, ts.URL+"/v1/jobs", submitBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, data)
	}
	distinct := strings.Replace(submitBody, `"global_batch":64`,
		`"global_batch":96`, 1)
	resp, data = postJSON(t, c, ts.URL+"/v1/jobs", distinct)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	resp, _ = getJSON(t, c, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}
	resp, data = postJSON(t, c, ts.URL+"/v1/jobs", distinct)
	if resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining submit: %d %s (Retry-After %q)", resp.StatusCode,
			data, resp.Header.Get("Retry-After"))
	}
}

func TestHTTPHealthStatsMetrics(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts, c := testClient(t, s)

	resp, _ := getJSON(t, c, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, c, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	_, data := postJSON(t, c, ts.URL+"/v1/jobs", submitBody)
	var a Ack
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	if res := s.Wait(ctx, a.ID); res == nil || res.State != StateDone {
		t.Fatalf("run did not finish: %+v", res)
	}

	resp, data = getJSON(t, c, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats body: %+v", st)
	}

	resp, data = getJSON(t, c, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(data)
	for _, sample := range []string{
		"triosim_server_submitted_total 1",
		"triosim_server_completed_total 1",
		`triosim_server_request_seconds_bucket{le="+Inf"} 1`,
		"triosim_server_request_seconds_count 1",
		"triosim_tracecache_trace_misses_total 1",
	} {
		if !strings.Contains(text, sample+"\n") {
			t.Errorf("metrics missing %q:\n%s", sample, text)
		}
	}
	// Every family is declared once, in name order, with its kind.
	var families []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, rest)
		}
	}
	want := []string{
		"triosim_server_canceled_total counter",
		"triosim_server_coalesce_hits_total counter",
		"triosim_server_completed_total counter",
		"triosim_server_draining gauge",
		"triosim_server_failed_total counter",
		"triosim_server_in_flight gauge",
		"triosim_server_queue_depth gauge",
		"triosim_server_rejected_total counter",
		"triosim_server_request_seconds histogram",
		"triosim_server_submitted_total counter",
		"triosim_tracecache_bytes gauge",
		"triosim_tracecache_timer_hits_total counter",
		"triosim_tracecache_timer_misses_total counter",
		"triosim_tracecache_timers gauge",
		"triosim_tracecache_trace_hits_total counter",
		"triosim_tracecache_trace_misses_total counter",
		"triosim_tracecache_traces gauge",
	}
	if strings.Join(families, "\n") != strings.Join(want, "\n") {
		t.Errorf("# TYPE lines:\n%s\nwant:\n%s", strings.Join(families, "\n"),
			strings.Join(want, "\n"))
	}
}

func TestHTTPCancel(t *testing.T) {
	s := newIdle(Options{})
	defer s.Close()
	ts, c := testClient(t, s)

	_, data := postJSON(t, c, ts.URL+"/v1/jobs", submitBody)
	var a Ack
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	resp, data = getJSON(t, c, ts.URL+"/v1/jobs/"+a.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after cancel: %d %s", resp.StatusCode, data)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.State != StateCanceled {
		t.Fatalf("canceled job result: %+v", res)
	}
	// A canceled run has no report: 409, not 200.
	resp, _ = getJSON(t, c, ts.URL+"/v1/jobs/"+a.ID+"/report")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report of canceled job: %d", resp.StatusCode)
	}
}
