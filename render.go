package ncexplorer

// Reflection-free JSON rendering of query answers. Every function here
// appends exactly the bytes json.Marshal produces for the matching
// struct — HTML-escaped strings, encoding/json's float format, null for
// a nil slice and [] for an empty one, omitempty honoured — so a body
// rendered here and one marshaled by encoding/json are interchangeable
// (TestRenderMatchesMarshal and FuzzRenderMatchesMarshal pin this).
//
// Two entry points share the primitives: AppendRollUpResult and
// AppendDrillDownResult render the public result structs (the cluster
// router's merged pages), and Explorer.AppendRollUp/AppendDrillDown
// render cached answers straight from the explorer's document store.

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"ncexplorer/internal/core"
	"ncexplorer/internal/kg"
)

// renderer appends JSON to b. The first unencodable float (NaN, ±Inf)
// is kept in err; rendering carries on and the caller checks err once.
type renderer struct {
	b   []byte
	err error
}

func (r *renderer) raw(s string) { r.b = append(r.b, s...) }

func (r *renderer) str(s string) { r.b = appendJSONString(r.b, s) }

func (r *renderer) int(n int) { r.b = strconv.AppendInt(r.b, int64(n), 10) }

func (r *renderer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if r.err == nil {
			r.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	r.b = appendJSONFloat(r.b, f)
}

// strs renders a string slice: null when nil, [] when empty.
func (r *renderer) strs(ss []string) {
	if ss == nil {
		r.raw("null")
		return
	}
	r.b = append(r.b, '[')
	for i, s := range ss {
		if i > 0 {
			r.b = append(r.b, ',')
		}
		r.str(s)
	}
	r.b = append(r.b, ']')
}

// result ends a render: dst with the appended JSON, or dst unchanged
// and the error when a value could not be encoded.
func (r *renderer) result(dst []byte) ([]byte, error) {
	if r.err != nil {
		return dst, r.err
	}
	return r.b, nil
}

// appendJSONFloat appends f as encoding/json does: ES6 number
// formatting — 'f' notation inside [1e-6, 1e21), 'e' notation outside
// it with a single-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// htmlSafe[c] reports whether ASCII byte c goes into a JSON string
// verbatim under encoding/json's HTML-safe escaping.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := byte(0x20); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// Byte-lane constants for safePrefix: 0x01 and 0x80 in each of eight
// lanes.
const (
	lanes01 = 0x0101010101010101
	lanes80 = 0x8080808080808080
)

// safePrefix returns the length of the longest prefix of s, in whole
// eight-byte words, whose bytes are all htmlSafe. It tests the eight
// lanes of a word at once: no high bit (non-ASCII), no byte below
// 0x20, and none equal to ", \, <, > or &. Article text is mostly safe
// ASCII, so appendJSONString skips it a word at a time.
func safePrefix(s string) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		if x&lanes80|hasLess(x, 0x20)|
			hasLess(x^lanes01*'"', 1)|hasLess(x^lanes01*'\\', 1)|
			hasLess(x^lanes01*'<', 1)|hasLess(x^lanes01*'>', 1)|hasLess(x^lanes01*'&', 1) != 0 {
			break
		}
	}
	return i
}

// hasLess is non-zero iff some byte lane of x is below n, for x with
// no lane ≥ 0x80 and n ≤ 0x80 (a borrow only ever runs upward from a
// lane that is below n).
func hasLess(x, n uint64) uint64 { return (x - lanes01*n) &^ x & lanes80 }

// appendJSONString appends s as a quoted JSON string with
// encoding/json's HTML-safe escaping: quote, backslash and control
// bytes escaped (\b \f \n \r \t short forms, \u00XX otherwise), <, >
// and & as \u003c \u003e \u0026, invalid UTF-8 bytes as \ufffd, and
// U+2028/U+2029 as \u2028/\u2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if i += safePrefix(s[i:]); i == len(s) {
			break
		}
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// pageHead renders the fields every result page opens with, up to and
// including the key of its item list ("articles" or "suggestions").
func (r *renderer) pageHead(query []string, k, offset, total, next int, gen uint64, items string) {
	r.raw(`{"query":`)
	r.strs(query)
	r.raw(`,"k":`)
	r.int(k)
	r.raw(`,"offset":`)
	r.int(offset)
	r.raw(`,"total":`)
	r.int(total)
	r.raw(`,"next_offset":`)
	r.int(next)
	r.raw(`,"generation":`)
	r.b = strconv.AppendUint(r.b, gen, 10)
	r.raw(`,"`)
	r.raw(items)
	r.raw(`":`)
}

// articleHead renders an article's fields before its score, ending in
// the score's key. An article is head, score, published_at, optional
// explanations, and "}".
func articleHead(b []byte, id int, source, title, body string) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"source":`...)
	b = appendJSONString(b, source)
	b = append(b, `,"title":`...)
	b = appendJSONString(b, title)
	b = append(b, `,"body":`...)
	b = appendJSONString(b, body)
	return append(b, `,"score":`...)
}

// explanation renders one Explanation; pivot is omitted when empty.
func (r *renderer) explanation(concept string, cdr float64, pivot string) {
	r.raw(`{"concept":`)
	r.str(concept)
	r.raw(`,"cdr":`)
	r.float(cdr)
	if pivot != "" {
		r.raw(`,"pivot":`)
		r.str(pivot)
	}
	r.b = append(r.b, '}')
}

func (r *renderer) periods(ps []Period) {
	if len(ps) == 0 {
		return
	}
	r.raw(`,"periods":[`)
	for i := range ps {
		p := &ps[i]
		if i > 0 {
			r.b = append(r.b, ',')
		}
		r.raw(`{"start":`)
		r.str(p.Start)
		r.raw(`,"count":`)
		r.int(p.Count)
		r.raw(`,"delta":`)
		r.int(p.Delta)
		r.raw(`,"direction":`)
		r.str(p.Direction)
		r.raw(`,"rank":`)
		r.int(p.Rank)
		r.raw(`,"rank_delta":`)
		r.int(p.RankDelta)
		r.b = append(r.b, '}')
	}
	r.b = append(r.b, ']')
}

func (r *renderer) suggestion(concept string, s *core.Subtopic, explain bool) {
	r.raw(`{"concept":`)
	r.str(concept)
	r.raw(`,"score":`)
	r.float(s.Score)
	if explain {
		r.raw(`,"coverage":`)
		r.float(s.Coverage)
		r.raw(`,"specificity":`)
		r.float(s.Specificity)
		r.raw(`,"diversity":`)
		r.float(s.Diversity)
	} else {
		r.raw(`,"coverage":0,"specificity":0,"diversity":0`)
	}
	r.raw(`,"matched_docs":`)
	r.int(s.MatchedDocs)
	r.b = append(r.b, '}')
}

// AppendRollUpResult appends the JSON encoding of res to dst,
// byte-identical to json.Marshal(res). A NaN or infinite float is an
// error, as it is for json.Marshal; dst is then returned unchanged.
func AppendRollUpResult(dst []byte, res *RollUpResult) ([]byte, error) {
	r := renderer{b: dst}
	r.pageHead(res.Query, res.K, res.Offset, res.Total, res.NextOffset, res.Generation, "articles")
	if res.Articles == nil {
		r.raw("null")
	} else {
		r.b = append(r.b, '[')
		for i := range res.Articles {
			a := &res.Articles[i]
			if i > 0 {
				r.b = append(r.b, ',')
			}
			r.b = articleHead(r.b, a.ID, a.Source, a.Title, a.Body)
			r.float(a.Score)
			r.raw(`,"published_at":`)
			r.str(a.PublishedAt)
			if len(a.Explanations) > 0 {
				r.raw(`,"explanations":[`)
				for j, e := range a.Explanations {
					if j > 0 {
						r.b = append(r.b, ',')
					}
					r.explanation(e.Concept, e.CDR, e.Pivot)
				}
				r.b = append(r.b, ']')
			}
			r.b = append(r.b, '}')
		}
		r.b = append(r.b, ']')
	}
	r.periods(res.Periods)
	r.b = append(r.b, '}')
	return r.result(dst)
}

// AppendDrillDownResult appends the JSON encoding of res to dst,
// byte-identical to json.Marshal(res), with AppendRollUpResult's error
// contract.
func AppendDrillDownResult(dst []byte, res *DrillDownResult) ([]byte, error) {
	r := renderer{b: dst}
	r.pageHead(res.Query, res.K, res.Offset, res.Total, res.NextOffset, res.Generation, "suggestions")
	if res.Suggestions == nil {
		r.raw("null")
	} else {
		r.b = append(r.b, '[')
		for i := range res.Suggestions {
			s := &res.Suggestions[i]
			if i > 0 {
				r.b = append(r.b, ',')
			}
			r.suggestion(s.Concept, &core.Subtopic{
				Score: s.Score, Coverage: s.Coverage, Specificity: s.Specificity,
				Diversity: s.Diversity, MatchedDocs: s.MatchedDocs,
			}, true)
		}
		r.b = append(r.b, ']')
	}
	r.b = append(r.b, '}')
	return r.result(dst)
}

// AppendRollUp appends the JSON encoding of the answer's RollUpResult
// to dst — byte-identical to json.Marshal(x.RollUpQuery(...)) for the
// request that produced it — without building the result: each
// article's fields are read from x's document store and encoded
// straight into dst. a must come from x (a document past another
// explorer's bound is not in its store). With a warm buffer it
// allocates nothing.
func (x *Explorer) AppendRollUp(dst []byte, a *RollUpAnswer) ([]byte, error) {
	r := renderer{b: dst}
	res := a.page.Results
	r.pageHead(a.concepts, a.k, a.offset, a.page.Total,
		nextOffset(a.offset, len(res), a.page.Total), a.page.Generation, "articles")
	r.b = append(r.b, '[')
	for i := range res {
		d := &res[i]
		if i > 0 {
			r.b = append(r.b, ',')
		}
		doc := x.engine.Doc(d.Doc)
		r.b = articleHead(r.b, int(d.Doc), doc.Source.String(), doc.Title, doc.Body)
		r.float(d.Score)
		// RFC3339 in UTC is digits, '-', ':', 'T' and 'Z': nothing to
		// escape, so it is formatted in place (publishedAt's bytes).
		r.raw(`,"published_at":"`)
		r.b = time.Unix(doc.PublishedAt, 0).UTC().AppendFormat(r.b, time.RFC3339)
		r.b = append(r.b, '"')
		if a.explain && len(d.Contributors) > 0 {
			r.raw(`,"explanations":[`)
			for j, cc := range d.Contributors {
				if j > 0 {
					r.b = append(r.b, ',')
				}
				r.explanation(x.g.Name(cc.Concept), cc.CDR, pivotName(x.g, cc.Pivot))
			}
			r.b = append(r.b, ']')
		}
		r.b = append(r.b, '}')
	}
	r.b = append(r.b, ']')
	r.periods(a.periods)
	r.b = append(r.b, '}')
	return r.result(dst)
}

// AppendDrillDown appends the JSON encoding of the answer's
// DrillDownResult to dst, byte-identical to
// json.Marshal(x.DrillDownQuery(...)) for the request that produced it.
func (x *Explorer) AppendDrillDown(dst []byte, a *DrillDownAnswer) ([]byte, error) {
	r := renderer{b: dst}
	res := a.page.Results
	r.pageHead(a.concepts, a.k, a.offset, a.page.Total,
		nextOffset(a.offset, len(res), a.page.Total), a.page.Generation, "suggestions")
	r.b = append(r.b, '[')
	for i := range res {
		if i > 0 {
			r.b = append(r.b, ',')
		}
		r.suggestion(x.g.Name(res[i].Concept), &res[i], a.explain)
	}
	r.b = append(r.b, ']', '}')
	return r.result(dst)
}

// pivotName is an explanation's pivot entity name, empty when the
// contribution carries no pivot.
func pivotName(g *kg.Graph, pivot kg.NodeID) string {
	if pivot < 0 {
		return ""
	}
	return g.Name(pivot)
}

// publishedAt formats a publication time as the wire's RFC3339 UTC.
func publishedAt(unix int64) string {
	return time.Unix(unix, 0).UTC().Format(time.RFC3339)
}
