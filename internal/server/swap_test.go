package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ncexplorer"
)

// TestSwapBetweenLoadAndFill swaps the serving explorer after a request
// has loaded its explorer but before it reaches the result cache. The
// request's answer is keyed, filled and rendered by the explorer it
// loaded, so new requests never see an old-generation answer, and the
// old explorer never renders an answer naming documents past its own
// bound.
func TestSwapBetweenLoadAndFill(t *testing.T) {
	ctx := context.Background()
	xOld, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	xNew, err := ncexplorer.New(ncexplorer.Config{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := xNew.SampleArticles(99, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xNew.Ingest(ctx, arts); err != nil {
		t.Fatal(err)
	}
	// A concept whose new-generation page ranks an ingested document,
	// one the old explorer's store does not hold.
	bound := xOld.NumArticles()
	var concept string
	for _, tp := range xNew.EvaluationTopics() {
		res, err := xNew.RollUpQuery(ctx, ncexplorer.RollUpRequest{Concepts: tp[:1], K: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Articles {
			if a.ID >= bound {
				concept = tp[0]
			}
		}
	}
	if concept == "" {
		t.Fatal("no topic ranks an ingested article; the swap would not be exercised")
	}

	s := New(xOld, Options{})
	post := func(k int) *httptest.ResponseRecorder {
		body, _ := json.Marshal(map[string]any{"concepts": []string{concept}, "k": k, "explain": true})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query/rollup", bytes.NewReader(body)))
		return rec
	}
	// want is json.Marshal of x's own page plus the trailing newline.
	want := func(x *ncexplorer.Explorer, k int) string {
		res, err := x.RollUpQuery(ctx, ncexplorer.RollUpRequest{Concepts: []string{concept}, K: k, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(res)
		return string(b) + "\n"
	}
	// render is what a request that loaded x answers for its page.
	render := func(x *ncexplorer.Explorer, k int) (string, bool) {
		answer, hit, aerr := s.execV2(ctx, x, "rollup", v2QueryRequest{Concepts: []string{concept}, K: k, Explain: true})
		if aerr != nil {
			t.Fatal(aerr.message)
		}
		b, err := appendAnswer(nil, x, answer)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n", hit
	}

	// A request that loaded xOld fills after the swap: new requests
	// must miss it and answer the new generation.
	s.SetExplorer(xNew)
	if got, hit := render(xOld, 100); hit || got != want(xOld, 100) {
		t.Fatalf("old request after the swap: hit %v, body matches its own page %v", hit, got == want(xOld, 100))
	}
	rec := post(100)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "MISS" || rec.Body.String() != want(xNew, 100) {
		t.Fatalf("new request after an old fill: %d X-Cache %s, body matches the new page %v",
			rec.Code, rec.Header().Get("X-Cache"), rec.Body.String() == want(xNew, 100))
	}
	if !strings.Contains(rec.Body.String(), `"generation":2`) {
		t.Fatalf("new request answered %s, want generation 2", rec.Body.String())
	}

	// The reverse: the new explorer fills first, and a request still
	// holding the old one must fill and render its own page rather
	// than render the new answer against the old document store.
	if rec := post(99); rec.Code != http.StatusOK || rec.Body.String() != want(xNew, 99) {
		t.Fatalf("new fill: %d", rec.Code)
	}
	if got, hit := render(xOld, 99); hit || got != want(xOld, 99) {
		t.Fatalf("old request after a new fill: hit %v, body matches its own page %v", hit, got == want(xOld, 99))
	}
	if rec := post(99); rec.Header().Get("X-Cache") != "HIT" || rec.Body.String() != want(xNew, 99) {
		t.Fatalf("repeat new request: X-Cache %s, body matches the new page %v",
			rec.Header().Get("X-Cache"), rec.Body.String() == want(xNew, 99))
	}
}
