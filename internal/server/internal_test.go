package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ncexplorer/internal/kg"
	"ncexplorer/internal/server"
)

var (
	clusterOnce sync.Once
	clusterSrv  *server.Server
)

// clusterServer serves the shared tiny world with the internal
// scatter/gather surface enabled.
func clusterServer(t testing.TB) *server.Server {
	t.Helper()
	testServer(t)
	clusterOnce.Do(func() { clusterSrv = server.New(explorer, server.Options{EnableCluster: true}) })
	return clusterSrv
}

func postRaw(t testing.TB, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	clusterServer(t).Handler().ServeHTTP(rec, req)
	return rec
}

// envelopeCode returns the v2 error envelope's code, or "" when the
// body is not one.
func envelopeCode(body []byte) string {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) != nil {
		return ""
	}
	return env.Error.Code
}

// diversityBody is a phase-two request for one shortlist entry.
func diversityBody(t testing.TB, id kg.NodeID) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"concepts": topicConcepts(t, 0), "shortlist": []kg.NodeID{id}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestInternalDiversityRejectsBadShortlist pins the shard side of
// malformed scatter input: a shortlist entry past the graph, negative,
// or naming an entity is a typed 400, not a dropped connection.
func TestInternalDiversityRejectsBadShortlist(t *testing.T) {
	clusterServer(t)
	g := explorer.Graph()
	entity := kg.InvalidNode
	g.Instances(func(v kg.NodeID) bool {
		entity = v
		return false
	})
	for name, id := range map[string]kg.NodeID{
		"past the graph": kg.NodeID(g.NumNodes() + 4),
		"negative":       -1,
		"entity":         entity,
	} {
		t.Run(name, func(t *testing.T) {
			rec := postRaw(t, "/internal/query/diversity", diversityBody(t, id))
			if rec.Code != http.StatusBadRequest || envelopeCode(rec.Body.Bytes()) != "invalid_argument" {
				t.Fatalf("shortlist [%d]: status %d, body %s; want 400 invalid_argument", id, rec.Code, rec.Body)
			}
		})
	}
}

// FuzzInternalDrillDown sends arbitrary bodies to both internal
// drill-down routes. Every answer must be a 200 or a typed 400
// envelope: never a panic, never a 5xx.
func FuzzInternalDrillDown(f *testing.F) {
	clusterServer(f)
	concepts, err := json.Marshal(topicConcepts(f, 0))
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"concepts":$Q}`,
		`{"concepts":$Q,"shortlist":[779]}`,
		`{"concepts":$Q,"shortlist":[-1]}`,
		`{"concepts":$Q,"shortlist":[0,1,2]}`,
		`{"concepts":$Q,"time_range":{"start":"2023-09-04T00:00:00Z","end":"2023-09-01T00:00:00Z"}}`,
		`{"concepts":[],"shortlist":[3]}`,
		`{"concepts":["no such concept"]}`,
		`{"concepts":$Q,"shortlist":"x"}`,
		`not json`,
		``,
	} {
		for route := range 2 {
			f.Add(uint8(route), []byte(strings.ReplaceAll(body, "$Q", string(concepts))))
		}
	}
	paths := [2]string{"/internal/query/drilldown-partials", "/internal/query/diversity"}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := paths[route%2]
		rec := postRaw(t, path, body)
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code == http.StatusBadRequest && envelopeCode(rec.Body.Bytes()) != "":
		default:
			t.Fatalf("%s %q: status %d, body %s; want 200 or a typed 400", path, body, rec.Code, rec.Body)
		}
	})
}
