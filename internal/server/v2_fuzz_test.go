package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// FuzzV2Query posts arbitrary bodies to the public query decoders —
// /v2/query/rollup, /v2/query/drilldown and /v2/batch — on the tiny
// world. Every answer must be a 200 carrying valid JSON of exactly its
// Content-Length, or a 4xx carrying a typed error envelope: never a
// 5xx, never a panic.
func FuzzV2Query(f *testing.F) {
	testServer(f)
	concepts, err := json.Marshal(topicConcepts(f, 0))
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"concepts":$Q}`,
		`{"concepts":$Q,"k":3,"offset":2,"explain":true}`,
		`{"concepts":$Q,"k":-1}`,
		`{"concepts":$Q,"k":100000,"offset":9223372036854775807}`,
		`{"concepts":$Q,"offset":-5}`,
		`{"concepts":$Q,"min_score":-1}`,
		`{"concepts":$Q,"min_score":1e308}`,
		`{"concepts":$Q,"sources":["reuters","nope"]}`,
		`{"concepts":$Q,"group_by":"week"}`,
		`{"concepts":$Q,"group_by":"fortnight"}`,
		`{"concepts":$Q,"time_range":{"start":"2023-09-04T00:00:00Z"}}`,
		`{"concepts":$Q,"time_range":{"start":"2023-09-04T00:00:00Z","end":"2023-09-01T00:00:00Z"}}`,
		`{"concepts":$Q,"time_range":{"start":"yesterday"}}`,
		`{"concepts":["no such concept"]}`,
		`{"concepts":[]}`,
		`{"concepts":"x"}`,
		`{"queries":[{"op":"rollup","concepts":$Q},{"op":"drilldown","concepts":$Q,"explain":true}]}`,
		`{"queries":[{"op":"zoom","concepts":$Q},{"op":"drilldown","concepts":$Q,"sources":["reuters"]}]}`,
		`{"queries":[]}`,
		`{"queries":"x"}`,
		`not json`,
		`{"concepts":$Q`,
		``,
	} {
		for route := range 3 {
			f.Add(uint8(route), []byte(strings.ReplaceAll(body, "$Q", string(concepts))))
		}
	}
	paths := [3]string{"/v2/query/rollup", "/v2/query/drilldown", "/v2/batch"}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := paths[int(route)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		testServer(t).Handler().ServeHTTP(rec, req)
		got := rec.Body.Bytes()
		switch {
		case rec.Code == http.StatusOK:
			if !json.Valid(got) {
				t.Fatalf("%s %q: 200 with invalid JSON %s", path, body, got)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
				t.Fatalf("%s %q: Content-Length %q for a %d-byte body", path, body, cl, len(got))
			}
		case rec.Code >= 400 && rec.Code < 500 && envelopeCode(got) != "":
		default:
			t.Fatalf("%s %q: status %d, body %s; want 200 or a typed 4xx", path, body, rec.Code, got)
		}
	})
}
