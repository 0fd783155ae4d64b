// v2: the typed query surface. Roll-up and drill-down are served only
// here: typed requests (pagination, source and score filters, time
// ranges, explanation toggles), batches executed under the engine's
// bounded parallelism, and one structured error envelope:
//
//	{"error": {"code": "...", "message": "...", "details": {...}}}
//
// with machine-readable codes (unknown_concept errors carry
// nearest-concept suggestions in details). The remaining GET /v1
// routes keep their flat error shape — byte-compatibility there is a
// hard contract (see DESIGN.md §5).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"ncexplorer"
)

// statusClientClosedRequest is nginx's conventional status for a
// request abandoned by the client; Go has no stdlib constant for it.
const statusClientClosedRequest = 499

// apiError is a structured v2 failure on its way to the error
// envelope.
type apiError struct {
	status  int
	code    ncexplorer.ErrorCode
	message string
	details map[string]any
}

func invalidArgument(format string, args ...any) *apiError {
	return &apiError{
		status:  http.StatusBadRequest,
		code:    ncexplorer.CodeInvalidArgument,
		message: fmt.Sprintf(format, args...),
	}
}

// statusForCode maps facade error codes to HTTP statuses.
func statusForCode(code ncexplorer.ErrorCode) int {
	switch code {
	case ncexplorer.CodeInvalidArgument, ncexplorer.CodeUnknownConcept, ncexplorer.CodeUnknownEntity:
		return http.StatusBadRequest
	case ncexplorer.CodeNotFound:
		return http.StatusNotFound
	case ncexplorer.CodePermissionDenied:
		return http.StatusForbidden
	case ncexplorer.CodeSessionExpired:
		return http.StatusGone
	case ncexplorer.CodeNoHistory:
		return http.StatusConflict
	case ncexplorer.CodeLimitExceeded:
		return http.StatusTooManyRequests
	case ncexplorer.CodeCancelled:
		return statusClientClosedRequest
	case ncexplorer.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case ncexplorer.CodeShardUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// apiErrorFrom converts any error into a structured apiError: typed
// facade errors keep their code and details, everything else becomes
// an internal error.
func apiErrorFrom(err error) *apiError {
	if e, ok := ncexplorer.AsError(err); ok {
		return &apiError{status: statusForCode(e.Code), code: e.Code, message: e.Message, details: e.Details}
	}
	return &apiError{status: http.StatusInternalServerError, code: ncexplorer.CodeInternal, message: err.Error()}
}

// errorEnvelope is the v2 error body shared by every /v2 endpoint.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    ncexplorer.ErrorCode `json:"code"`
	Message string               `json:"message"`
	Details map[string]any       `json:"details,omitempty"`
}

// marshalAPIError renders the envelope (for batch items the envelope
// is embedded without a status line).
func marshalAPIError(e *apiError) []byte {
	body, err := json.Marshal(errorEnvelope{Error: errorBody{Code: e.code, Message: e.message, Details: e.details}})
	if err != nil {
		// Details can in principle hold unmarshalable values; degrade
		// to a detail-less envelope rather than failing the error path.
		body, _ = json.Marshal(errorEnvelope{Error: errorBody{Code: e.code, Message: e.message}})
	}
	return body
}

// StatusForCode maps a facade error code to the HTTP status the /v2
// surface uses — exported for the cluster router, whose error
// responses must be byte- and status-identical to a monolithic
// server's.
func StatusForCode(code ncexplorer.ErrorCode) int { return statusForCode(code) }

// MarshalErrorEnvelope renders the shared /v2 error envelope — the
// router counterpart of writeAPIError.
func MarshalErrorEnvelope(code ncexplorer.ErrorCode, message string, details map[string]any) []byte {
	return marshalAPIError(&apiError{code: code, message: message, details: details})
}

// writeAPIError writes the envelope with its status.
func (s *Server) writeAPIError(w http.ResponseWriter, e *apiError) {
	s.errors.Add(1)
	s.writeBody(w, e.status, marshalAPIError(e))
}

// v2QueryRequest is the body of the typed query endpoints (and of the
// per-item entries in /v2/batch and the session navigation calls).
type v2QueryRequest struct {
	Concepts []string              `json:"concepts"`
	K        int                   `json:"k"`
	Offset   int                   `json:"offset"`
	Sources  []string              `json:"sources"`
	MinScore float64               `json:"min_score"`
	Time     *ncexplorer.TimeRange `json:"time_range"`
	GroupBy  string                `json:"group_by"`
	Explain  bool                  `json:"explain"`
}

// normalizeV2 applies the HTTP-layer page-size conventions: an absent
// k (0) means the default page size, and k is clamped to MaxK.
// Everything that can be *invalid* (negative k, offset or
// min_score, empty or unknown concepts, unknown sources) is left to
// the facade, whose typed errors map onto the envelope — one
// validation rulebook instead of two that drift.
func (s *Server) normalizeV2(q *v2QueryRequest) {
	if q.K == 0 {
		q.K = defaultK
	}
	if q.K > s.opts.MaxK {
		q.K = s.opts.MaxK
	}
}

// decodeV2 parses a JSON body into v, mapping failures to the
// structured envelope. An entirely empty body decodes as the
// all-defaults request — the session navigation endpoints make every
// field optional, so a body-free POST is a documented call shape
// (truncated JSON still fails: that surfaces as ErrUnexpectedEOF, not
// EOF).
func decodeV2(w http.ResponseWriter, r *http.Request, v any) *apiError {
	return decodeV2Limit(w, r, v, maxBodyBytes)
}

// decodeV2Limit is decodeV2 with a caller-chosen body cap (the ingest
// endpoint accepts much larger payloads than the query endpoints).
func decodeV2Limit(w http.ResponseWriter, r *http.Request, v any, limit int64) *apiError {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{
				status:  http.StatusRequestEntityTooLarge,
				code:    ncexplorer.CodeInvalidArgument,
				message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			}
		}
		return invalidArgument("malformed request body: %v", err)
	}
	return nil
}

// doCached runs a fill through the singleflight result cache under
// the caller's context. Coalescing has a sharp edge here: a waiter
// piggybacks on whichever request filled first, and if *that* client
// disconnects mid-query its context error propagates to every waiter.
// So on a cancellation-shaped error we retry while our own context is
// still live — the poisoned in-flight call has already completed, and
// the retry either hits a healthy fill or becomes the filler with a
// live context. Bounded, since each retry can only lose the race to
// another dying request. The key is scoped to x (epochKey): fill must
// run on x, and the caller renders the answer with x.
func (s *Server) doCached(ctx context.Context, x *ncexplorer.Explorer, key string, fill func() (any, error)) (any, bool, error) {
	key = epochKey(x, key)
	const maxRetries = 2
	for attempt := 0; ; attempt++ {
		v, hit, err := s.cache.Do(key, fill)
		if err != nil && attempt < maxRetries && ctx.Err() == nil {
			if e, ok := ncexplorer.AsError(err); ok &&
				(e.Code == ncexplorer.CodeCancelled || e.Code == ncexplorer.CodeDeadlineExceeded) {
				continue
			}
		}
		return v, hit, err
	}
}

// execRollUpV2 runs a normalized typed roll-up through the result
// cache on x, returning the cached answer (the caller renders it with
// the same x). Batch items and session navigation share this path, so
// their payloads are byte-identical to the single-call endpoint's.
func (s *Server) execRollUpV2(ctx context.Context, x *ncexplorer.Explorer, q v2QueryRequest) (any, bool, *apiError) {
	req := ncexplorer.RollUpRequest{
		Concepts: q.Concepts, K: q.K, Offset: q.Offset,
		Sources: q.Sources, MinScore: q.MinScore,
		Time: q.Time, GroupBy: q.GroupBy, Explain: q.Explain,
	}
	v, hit, err := s.doCached(ctx, x, req.Key(), func() (any, error) {
		return x.AnswerRollUp(ctx, req)
	})
	if err != nil {
		return nil, false, apiErrorFrom(err)
	}
	return v, hit, nil
}

// execDrillDownV2 is the drill-down analogue of execRollUpV2.
func (s *Server) execDrillDownV2(ctx context.Context, x *ncexplorer.Explorer, q v2QueryRequest) (any, bool, *apiError) {
	if len(q.Sources) > 0 {
		return nil, false, invalidArgument("drilldown does not accept a sources filter")
	}
	if q.GroupBy != "" {
		return nil, false, invalidArgument("drilldown does not accept group_by")
	}
	req := ncexplorer.DrillDownRequest{
		Concepts: q.Concepts, K: q.K, Offset: q.Offset,
		MinScore: q.MinScore, Time: q.Time, Explain: q.Explain,
	}
	v, hit, err := s.doCached(ctx, x, req.Key(), func() (any, error) {
		return x.AnswerDrillDown(ctx, req)
	})
	if err != nil {
		return nil, false, apiErrorFrom(err)
	}
	return v, hit, nil
}

// execV2 dispatches one typed query by operation name. The answer is a
// *ncexplorer.RollUpAnswer or *ncexplorer.DrillDownAnswer; appendAnswer
// renders either.
func (s *Server) execV2(ctx context.Context, x *ncexplorer.Explorer, op string, q v2QueryRequest) (any, bool, *apiError) {
	s.normalizeV2(&q)
	switch op {
	case "rollup":
		return s.execRollUpV2(ctx, x, q)
	case "drilldown":
		return s.execDrillDownV2(ctx, x, q)
	default:
		return nil, false, invalidArgument("unknown op %q (want \"rollup\" or \"drilldown\")", op)
	}
}

// appendAnswer renders a cached answer into b with the explorer
// serving the request.
func appendAnswer(b []byte, x *ncexplorer.Explorer, answer any) ([]byte, error) {
	if a, ok := answer.(*ncexplorer.RollUpAnswer); ok {
		return x.AppendRollUp(b, a)
	}
	return x.AppendDrillDown(b, answer.(*ncexplorer.DrillDownAnswer))
}

// handleQueryV2 returns the handler for one typed query endpoint.
func (s *Server) handleQueryV2(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var q v2QueryRequest
		if aerr := decodeV2(w, r, &q); aerr != nil {
			s.writeAPIError(w, aerr)
			return
		}
		x := s.explorer()
		answer, hit, aerr := s.execV2(r.Context(), x, op, q)
		if aerr != nil {
			s.writeAPIError(w, aerr)
			return
		}
		if hit {
			w.Header().Set("X-Cache", "HIT")
		} else {
			w.Header().Set("X-Cache", "MISS")
		}
		s.render(w, http.StatusOK, func(b []byte) ([]byte, error) {
			return appendAnswer(b, x, answer)
		})
	}
}

// batchRequest is the /v2/batch body: N independent typed queries.
type batchRequest struct {
	Queries []batchQuery `json:"queries"`
}

// batchQuery is one batch entry: an op plus the typed request fields.
type batchQuery struct {
	Op string `json:"op"`
	v2QueryRequest
}

// handleBatch answers {"count":N,"results":[…]} with one result slot
// per query, in request order. A slot holds either the op's result
// object (byte-identical to the single-call endpoint) or an error
// envelope; one bad query never fails its siblings.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if aerr := decodeV2(w, r, &req); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if len(req.Queries) == 0 {
		s.writeAPIError(w, invalidArgument("empty batch"))
		return
	}
	if len(req.Queries) > s.opts.MaxBatch {
		s.writeAPIError(w, invalidArgument("batch of %d queries exceeds the maximum of %d",
			len(req.Queries), s.opts.MaxBatch))
		return
	}
	// Fan out under the engine's worker budget: batch-level parallelism
	// composes with the engine's own intra-query helpers through the
	// engine-wide semaphore, so a big batch cannot oversubscribe the
	// scheduler. Each slot keeps its answer or its error envelope; the
	// body is rendered once every query is done.
	x := s.explorer()
	answers := make([]any, len(req.Queries))
	failures := make([][]byte, len(req.Queries))
	sem := make(chan struct{}, x.Parallelism())
	var wg sync.WaitGroup
	for i, q := range req.Queries {
		wg.Add(1)
		go func(i int, q batchQuery) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			answer, _, aerr := s.execV2(r.Context(), x, q.Op, q.v2QueryRequest)
			if aerr != nil {
				// Count item-level failures like whole-request ones so
				// /statsz error monitoring sees them.
				s.errors.Add(1)
				failures[i] = marshalAPIError(aerr)
				return
			}
			answers[i] = answer
		}(i, q)
	}
	wg.Wait()
	s.render(w, http.StatusOK, func(b []byte) ([]byte, error) {
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, int64(len(answers)), 10)
		b = append(b, `,"results":[`...)
		for i, answer := range answers {
			if i > 0 {
				b = append(b, ',')
			}
			if answer == nil {
				b = append(b, failures[i]...)
				continue
			}
			var err error
			if b, err = appendAnswer(b, x, answer); err != nil {
				return b, err
			}
		}
		return append(b, ']', '}'), nil
	})
}

// methodNotAllowedV2 answers a known /v2 path hit with the wrong
// method, using the structured envelope.
func (s *Server) methodNotAllowedV2(allow string) http.HandlerFunc {
	return s.counted("other", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeAPIError(w, &apiError{
			status:  http.StatusMethodNotAllowed,
			code:    ncexplorer.CodeInvalidArgument,
			message: fmt.Sprintf("method %s not allowed (want %s)", r.Method, allow),
		})
	})
}
