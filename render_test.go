package ncexplorer

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"ncexplorer/internal/core"
	"ncexplorer/internal/corpus"
)

// renderStrings are the string inputs whose escaping the renderer must
// reproduce: HTML-sensitive bytes, every control byte class, invalid
// UTF-8 and the two JavaScript line terminators.
var renderStrings = []string{
	"",
	"plain ascii",
	`<script>alert("x")</script> & more`,
	"quote \" backslash \\ slash /",
	"\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f",
	"bad utf8 \xff\xfe tail \xc3\x28 trunc \xe2\x82",
	"lone continuation \x80",
	"line\u2028sep para\u2029sep",
	"multibyte \u00e9 \u4e2d\u6587 \U0001f642",
}

// renderFloats are the float inputs at encoding/json's format
// boundaries: the 1e-6 and 1e21 cutoffs, negative zero, subnormals and
// the extremes.
var renderFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.5e22, 1e100,
	5e-324, math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3,
	math.MaxFloat64, -math.MaxFloat64,
}

// checkRollUp requires AppendRollUpResult to reproduce json.Marshal.
func checkRollUp(t *testing.T, res *RollUpResult) {
	t.Helper()
	want, werr := json.Marshal(res)
	got, gerr := AppendRollUpResult([]byte("prefix"), res)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("json.Marshal error %v, renderer error %v", werr, gerr)
	}
	if werr != nil {
		if string(got) != "prefix" {
			t.Fatalf("failed render changed dst: %q", got)
		}
		return
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("renderer diverges from json.Marshal:\n got %s\nwant %s", got[len("prefix"):], want)
	}
}

// checkDrillDown requires AppendDrillDownResult to reproduce
// json.Marshal.
func checkDrillDown(t *testing.T, res *DrillDownResult) {
	t.Helper()
	want, werr := json.Marshal(res)
	got, gerr := AppendDrillDownResult(nil, res)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("json.Marshal error %v, renderer error %v", werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("renderer diverges from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// TestRenderMatchesMarshal pins the reflection-free renderer to
// encoding/json: hand-built results cover escaping, float formatting,
// nil versus empty slices and omitempty; answers from the tiny world
// cover explain on and off, every group_by period and paging.
func TestRenderMatchesMarshal(t *testing.T) {
	for _, s := range renderStrings {
		for _, f := range renderFloats {
			art := Article{ID: 7, Source: s, Title: s, Body: s, Score: f, PublishedAt: s,
				Explanations: []Explanation{{Concept: s, CDR: f, Pivot: s}, {Concept: s, CDR: -f}}}
			checkRollUp(t, &RollUpResult{Query: []string{s, "b"}, K: 3, Offset: 1, Total: 9, NextOffset: -1,
				Generation: math.MaxUint64, Articles: []Article{art, {Score: f}},
				Periods: []Period{{Start: s, Count: 2, Delta: -1, Direction: s, Rank: 1, RankDelta: -3}}})
			checkDrillDown(t, &DrillDownResult{Query: []string{s}, K: 1, Total: 1, NextOffset: 4,
				Suggestions: []SubtopicSuggestion{{Concept: s, Score: f, Coverage: f, Specificity: -f,
					Diversity: f / 3, MatchedDocs: -2}}})
		}
	}
	// nil versus empty slices, and omitempty on explanations, pivot and
	// periods.
	checkRollUp(t, &RollUpResult{})
	checkRollUp(t, &RollUpResult{Query: []string{}, Articles: []Article{}, Periods: []Period{}})
	checkRollUp(t, &RollUpResult{Articles: []Article{{Explanations: []Explanation{}}}})
	checkDrillDown(t, &DrillDownResult{})
	checkDrillDown(t, &DrillDownResult{Query: []string{}, Suggestions: []SubtopicSuggestion{}})

	// Unencodable floats are errors, as they are for json.Marshal.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := RollUpResult{Articles: []Article{{Score: bad}}}
		if _, err := AppendRollUpResult(nil, &res); err == nil {
			t.Fatalf("score %v rendered without error", bad)
		}
		checkRollUp(t, &res)
		checkRollUp(t, &RollUpResult{Articles: []Article{{Explanations: []Explanation{{CDR: bad}}}}})
		checkDrillDown(t, &DrillDownResult{Suggestions: []SubtopicSuggestion{{Diversity: bad}}})
	}

	x := getExplorer(t)
	ctx := context.Background()
	for i := range x.EvaluationTopics() {
		q := topicQuery(t, i)
		for _, explain := range []bool{false, true} {
			for _, groupBy := range []string{"", "day", "week", "month"} {
				for _, offset := range []int{0, 3, 1000} {
					req := RollUpRequest{Concepts: q, K: 5, Offset: offset, Explain: explain, GroupBy: groupBy}
					a, err := x.AnswerRollUp(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					res, err := x.RollUpQuery(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := json.Marshal(res)
					got, err := x.AppendRollUp(nil, a)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("rollup %+v (err %v):\n got %s\nwant %s", req, err, got, want)
					}
				}
			}
			for _, offset := range []int{0, 2, 1000} {
				req := DrillDownRequest{Concepts: q[:1], K: 4, Offset: offset, Explain: explain}
				a, err := x.AnswerDrillDown(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				res, err := x.DrillDownQuery(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := json.Marshal(res)
				got, err := x.AppendDrillDown(nil, a)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("drilldown %+v (err %v):\n got %s\nwant %s", req, err, got, want)
				}
			}
		}
	}
}

// TestSafePrefix checks the eight-lane test against the per-byte
// table: every byte value in every lane of the second word, among safe
// neighbours and among unsafe ones.
func TestSafePrefix(t *testing.T) {
	for _, fill := range []byte{'a', '~', ' ', '"', 0x1f, 0x80} {
		for lane := 0; lane < 8; lane++ {
			for c := 0; c < 256; c++ {
				w := bytes.Repeat([]byte{fill}, 8)
				w[lane] = byte(c)
				want := 8
				for _, b := range w {
					if b >= utf8.RuneSelf || !htmlSafe[b] {
						want = 0
					}
				}
				s := "safe8ok!" + string(w) + "tail"
				if got := safePrefix(s); got != 8+want {
					t.Fatalf("safePrefix(%q) = %d, want %d", s, got, 8+want)
				}
			}
		}
	}
}

// FuzzRenderMatchesMarshal drives the struct renderer with arbitrary
// strings and float bit patterns; every output must equal json.Marshal,
// and every json.Marshal failure must be a renderer error.
func FuzzRenderMatchesMarshal(f *testing.F) {
	for i, s := range renderStrings {
		f.Add(s, renderStrings[(i+1)%len(renderStrings)], math.Float64bits(renderFloats[i%len(renderFloats)]), uint8(i))
	}
	f.Add("x", "y", math.Float64bits(math.NaN()), uint8(0))
	f.Add("x", "y", math.Float64bits(math.Inf(-1)), uint8(3))
	f.Fuzz(func(t *testing.T, s1, s2 string, bits uint64, shape uint8) {
		v := math.Float64frombits(bits)
		art := Article{ID: int(bits >> 40), Source: s1, Title: s2, Body: s1 + s2, Score: v, PublishedAt: s2}
		if shape&1 != 0 {
			art.Explanations = []Explanation{{Concept: s2, CDR: v / 7, Pivot: s1}}
		}
		res := RollUpResult{Query: []string{s1, s2}, K: int(shape), Offset: -int(shape), Total: int(bits & 0xffff),
			NextOffset: -1, Generation: bits}
		if shape&2 != 0 {
			res.Articles = []Article{art, {}}
		}
		if shape&4 != 0 {
			res.Periods = []Period{{Start: s1, Count: int(shape), Direction: s2}}
		}
		if shape&8 != 0 {
			res.Query = nil
		}
		checkRollUp(t, &res)
		dd := DrillDownResult{Query: res.Query, K: int(shape), Generation: bits}
		if shape&16 != 0 {
			dd.Suggestions = []SubtopicSuggestion{{Concept: s1, Score: v, Coverage: -v, Specificity: v * v, Diversity: 1 / v}}
		}
		checkDrillDown(t, &dd)
	})
}

// TestRenderHitNoAlloc pins the cache-hit encode cost: with a warm
// buffer, rendering a cached answer allocates nothing.
func TestRenderHitNoAlloc(t *testing.T) {
	x := getExplorer(t)
	ctx := context.Background()
	q := topicQuery(t, 0)
	ra, err := x.AnswerRollUp(ctx, RollUpRequest{Concepts: q, K: 10, Explain: true, GroupBy: "week"})
	if err != nil {
		t.Fatal(err)
	}
	da, err := x.AnswerDrillDown(ctx, DrillDownRequest{Concepts: q, K: 10, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := x.AppendRollUp(nil, ra) // warms the buffer
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.page.Results) == 0 {
		t.Fatal("roll-up answer is empty; the gate would measure nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = x.AppendRollUp(buf[:0], ra) }); allocs != 0 {
		t.Errorf("warm AppendRollUp allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = x.AppendDrillDown(buf[:0], da) }); allocs != 0 {
		t.Errorf("warm AppendDrillDown allocates %.1f/op, want 0", allocs)
	}
}

// TestAppendRollUpIngestedArticles renders a hand-built answer over
// ingested articles whose titles and bodies need every kind of
// escaping, with publication times across the RFC3339 range: each page
// must equal json.Marshal of the articles RollUpQuery would build.
func TestAppendRollUpIngestedArticles(t *testing.T) {
	x, err := New(Config{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	first := x.NumArticles()
	var batch []IngestArticle
	for i, s := range renderStrings {
		batch = append(batch, IngestArticle{Source: "reuters", Title: s, Body: s + renderStrings[(i+3)%len(renderStrings)],
			PublishedAt: []string{"2023-09-04T08:00:00Z", "1970-01-01T00:00:00Z", "2099-12-31T23:59:59Z"}[i%3]})
	}
	if _, err := x.Ingest(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	a := &RollUpAnswer{concepts: []string{"c"}, k: len(batch), explain: true}
	want := RollUpResult{Query: a.concepts, K: a.k, NextOffset: -1}
	for i := range batch {
		r := core.DocResult{Doc: corpus.DocID(first + i), Score: renderFloats[i%len(renderFloats)]}
		a.page.Results = append(a.page.Results, r)
		want.Articles = append(want.Articles, x.article(r, true))
	}
	a.page.Total, want.Total = len(batch), len(batch)
	wantJSON, _ := json.Marshal(want)
	got, err := x.AppendRollUp(nil, a)
	if err != nil || !bytes.Equal(got, wantJSON) {
		t.Fatalf("ingested page (err %v):\n got %s\nwant %s", err, got, wantJSON)
	}
}

// BenchmarkAppendRollUp measures the cache-hit encode: one warm
// roll-up answer (k=10, explanations on) rendered into a reused buffer.
func BenchmarkAppendRollUp(b *testing.B) {
	x := getExplorer(b)
	a, err := x.AnswerRollUp(context.Background(), RollUpRequest{Concepts: topicQuery(b, 0), K: 10, Explain: true})
	if err != nil {
		b.Fatal(err)
	}
	buf, _ := x.AppendRollUp(nil, a)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = x.AppendRollUp(buf[:0], a)
	}
}
