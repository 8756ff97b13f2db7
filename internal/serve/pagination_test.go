package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/rfid/api"
)

// postRaw posts v as JSON and returns the raw response (caller closes Body).
func postRaw(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestSessionListPagination walks GET /v1/sessions page by page and checks
// the stable order, the token chaining and the terminal empty token.
func TestSessionListPagination(t *testing.T) {
	srv, ts, _, _ := newTestServer(t, 8)
	srv.cfg.MaxSessions = 8
	for _, id := range []string{"alpha", "bravo", "charlie", "delta"} {
		if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: id}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, code)
		}
	}
	// Bad limit values are 400s.
	var env api.ErrorEnvelope
	if code := getJSON(t, ts.URL+"/v1/sessions?limit=0", &env); code != http.StatusBadRequest {
		t.Fatalf("limit=0: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/sessions?limit=frog", &env); code != http.StatusBadRequest {
		t.Fatalf("limit=frog: status %d, want 400", code)
	}
	// Page through with limit 2: ascending id order ("default" sorts like any
	// other id), 3 pages (5 sessions).
	var ids []string
	token := ""
	pages := 0
	for {
		var page api.SessionList
		url := ts.URL + "/v1/sessions?limit=2"
		if token != "" {
			url += "&page_token=" + token
		}
		if code := getJSON(t, url, &page); code != http.StatusOK {
			t.Fatalf("page %d: status %d", pages, code)
		}
		pages++
		for _, s := range page.Sessions {
			ids = append(ids, s.ID)
		}
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	want := []string{"alpha", "bravo", "charlie", "default", "delta"}
	if fmt.Sprint(ids) != fmt.Sprint(want) || pages != 3 {
		t.Fatalf("paged walk = %v over %d pages, want %v over 3", ids, pages, want)
	}
	// A token naming a deleted/unknown id resumes at its position rather than
	// failing, so a walk survives concurrent deletes.
	var page api.SessionList
	if code := getJSON(t, ts.URL+"/v1/sessions?limit=10&page_token=bzzz", &page); code != http.StatusOK {
		t.Fatalf("unknown token: status %d", code)
	}
	if len(page.Sessions) != 3 || page.Sessions[0].ID != "charlie" {
		t.Fatalf("resume after unknown token = %+v, want charlie+default+delta", page.Sessions)
	}
	// An unpaginated list is unchanged: every session, no token.
	var all api.SessionList
	if code := getJSON(t, ts.URL+"/v1/sessions", &all); code != http.StatusOK || len(all.Sessions) != 5 || all.NextPageToken != "" {
		t.Fatalf("unpaginated list: status %d, %d sessions, token %q", code, len(all.Sessions), all.NextPageToken)
	}
}

// TestQueryListPagination pins the dual response shape of GET .../queries —
// the legacy bare array without pagination parameters, an api.QueryPage with
// them — and the token walk over the registry's id order.
func TestQueryListPagination(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 8)
	for i := 0; i < 5; i++ {
		if code := postJSON(t, ts.URL+"/v1/sessions/default/queries", api.QuerySpec{Kind: api.QueryLocationUpdates}, nil); code != http.StatusCreated {
			t.Fatalf("register %d: status %d", i, code)
		}
	}
	// Unpaginated: the legacy bare array.
	var bare api.QueryList
	if code := getJSON(t, ts.URL+"/v1/sessions/default/queries", &bare); code != http.StatusOK || len(bare) != 5 {
		t.Fatalf("bare list: status %d, %d queries, want 5", code, len(bare))
	}
	// Paginated: QueryPage chained by next_page_token.
	var ids []string
	token := ""
	for {
		var page api.QueryPage
		url := ts.URL + "/v1/sessions/default/queries?limit=2"
		if token != "" {
			url += "&page_token=" + token
		}
		if code := getJSON(t, url, &page); code != http.StatusOK {
			t.Fatalf("page: status %d", code)
		}
		if len(page.Queries) > 2 {
			t.Fatalf("page of %d > limit 2", len(page.Queries))
		}
		for _, q := range page.Queries {
			ids = append(ids, q.ID)
		}
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if len(ids) != 5 {
		t.Fatalf("paged walk saw %d queries (%v), want 5", len(ids), ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("walk not in id order: %v", ids)
		}
	}
}

// TestCreateLocationHeaders pins the 201 + Location contract on both resource
// creations, and that the advertised path actually serves the resource.
func TestCreateLocationHeaders(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 8)
	resp := postRaw(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "located"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sessions/located" {
		t.Fatalf("session Location = %q, want /v1/sessions/located", loc)
	}
	if code := getJSON(t, ts.URL+resp.Header.Get("Location"), nil); code != http.StatusOK {
		t.Fatalf("GET advertised session location: status %d", code)
	}

	qresp := postRaw(t, ts.URL+"/v1/sessions/located/queries", api.QuerySpec{Kind: api.QueryLocationUpdates})
	defer qresp.Body.Close()
	var info api.QueryInfo
	if err := json.NewDecoder(qresp.Body).Decode(&info); err != nil || qresp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d, err %v", qresp.StatusCode, err)
	}
	wantLoc := "/v1/sessions/located/queries/" + info.ID
	if loc := qresp.Header.Get("Location"); loc != wantLoc {
		t.Fatalf("query Location = %q, want %q", loc, wantLoc)
	}
	if code := getJSON(t, ts.URL+wantLoc+"/results", nil); code != http.StatusOK {
		t.Fatalf("GET advertised query results: status %d", code)
	}
}

// TestRetryAfterHint pins the retry_after_ms envelope field and the mirrored
// Retry-After header on a deterministic unavailable refusal (the session
// limit), plus the retryAfterMS derivation used by backpressure paths.
func TestRetryAfterHint(t *testing.T) {
	srv, ts, _, _ := newTestServer(t, 8)
	srv.cfg.MaxSessions = 1 // newTestServer's session holds the only slot
	resp := postRaw(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{ID: "overflow"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create past limit: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Error == nil || env.Error.Code != api.ErrUnavailable || env.Error.RetryAfterMS != 1000 {
		t.Fatalf("envelope = %+v, want unavailable with retry_after_ms 1000", env.Error)
	}

	for wait, want := range map[time.Duration]int{2 * time.Second: 500, 100 * time.Millisecond: 50, 0: 50} {
		if got := retryAfterMS(wait); got != want {
			t.Errorf("retryAfterMS(%v) = %d, want %d", wait, got, want)
		}
	}
}

func TestWriteUnavailable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeUnavailable(rec, 1500, "stream slot busy on %q", "s1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want 2 (1500ms rounded up)", got)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("envelope: %v (%s)", err, rec.Body.Bytes())
	}
	if env.Error.Code != api.ErrUnavailable || env.Error.RetryAfterMS != 1500 ||
		!strings.Contains(env.Error.Message, `stream slot busy on "s1"`) {
		t.Fatalf("envelope = %+v", env.Error)
	}
}
