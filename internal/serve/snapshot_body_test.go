package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"repro/rfid/api"
)

// TestSnapshotBodiesMatchEncodingJSON pins the hand-written snapshot bodies to
// the bytes encoding/json wrote for the same values before: the time-travel
// body at the oldest, a middle and the newest retained epoch, and every
// tracked tag's body. Each body must also decode through the SDK's decoder to
// exactly json.Unmarshal's value.
func TestSnapshotBodiesMatchEncodingJSON(t *testing.T) {
	trace, rByT, lByT, maxT := recoveryTrace(t)
	srv, ts := startRecoveryServer(t, trace, 1, "")
	defer func() { ts.Close(); srv.Close() }()
	ingestEpochs(t, ts.URL, rByT, lByT, 0, maxT+1)
	postJSON(t, ts.URL+sessPath+"/flush", map[string]any{}, nil)
	sess, _ := srv.session("default")
	runner := sess.engine()

	oldest, newest, ok := runner.HistoryBounds()
	if !ok || newest-oldest < 2 {
		t.Fatalf("history bounds [%d, %d] %v, want at least three epochs", oldest, newest, ok)
	}
	for _, epoch := range []int{oldest, (oldest + newest) / 2, newest} {
		events, ok := runner.HistoryEvents(epoch)
		if !ok || len(events) == 0 {
			t.Fatalf("epoch %d: no history", epoch)
		}
		want := api.HistorySnapshot{Epoch: epoch, Objects: []api.TagSnapshot{}}
		for _, ev := range events {
			want.Objects = append(want.Objects, api.TagSnapshot{
				Tag: string(ev.Tag), Found: true,
				X: ev.Loc.X, Y: ev.Loc.Y, Z: ev.Loc.Z,
				VarX: ev.Stats.Variance.X, VarY: ev.Stats.Variance.Y, VarZ: ev.Stats.Variance.Z,
				NumParticles: ev.Stats.NumParticles,
				Compressed:   ev.Stats.Compressed,
			})
		}
		body := checkSnapshotBody(t, ts.URL+sessPath+"/snapshot?epoch="+strconv.Itoa(epoch), want)
		var got, ref api.HistorySnapshot
		if err := api.DecodeHistorySnapshot(body, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &ref); err != nil || !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: decoded %+v, json.Unmarshal %+v (%v), sent %+v", epoch, got, ref, err, want)
		}
	}

	tags := runner.Tracked()
	if len(tags) == 0 {
		t.Fatal("no tracked tags")
	}
	for _, tag := range tags {
		loc, st, ok := runner.Snapshot(tag)
		if !ok {
			t.Fatalf("tag %s: no estimate", tag)
		}
		want := api.TagSnapshot{
			Tag: string(tag), Found: true,
			X: loc.X, Y: loc.Y, Z: loc.Z,
			VarX: st.Variance.X, VarY: st.Variance.Y, VarZ: st.Variance.Z,
			NumParticles: st.NumParticles,
			Compressed:   st.Compressed,
		}
		body := checkSnapshotBody(t, ts.URL+sessPath+"/snapshot/"+string(tag), want)
		var got, ref api.TagSnapshot
		if err := api.DecodeTagSnapshot(body, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &ref); err != nil || got != ref || got != want {
			t.Fatalf("tag %s: decoded %+v, json.Unmarshal %+v (%v), sent %+v", tag, got, ref, err, want)
		}
	}
}

// checkSnapshotBody fetches url and asserts a 200 whose body is
// json.NewEncoder's encoding of want, sent with its Content-Length.
func checkSnapshotBody(t *testing.T, url string, want any) []byte {
	t.Helper()
	var ref bytes.Buffer
	if err := json.NewEncoder(&ref).Encode(want); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET %s: status %d, content type %q", url, resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if resp.ContentLength != int64(body.Len()) {
		t.Fatalf("GET %s: Content-Length %d for a %d-byte body", url, resp.ContentLength, body.Len())
	}
	if !bytes.Equal(body.Bytes(), ref.Bytes()) {
		t.Fatalf("GET %s:\n body %q\n want %q", url, body.Bytes(), ref.Bytes())
	}
	return body.Bytes()
}
