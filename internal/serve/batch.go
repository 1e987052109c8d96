package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"smartndr/internal/obs"
	"smartndr/internal/par"
)

// maxBatchItems bounds one batch's item count. At 256 items × 64-arm
// sweeps' worth of flow work the envelope already amortizes round
// trips thoroughly; beyond it, paginate.
const maxBatchItems = 256

// BatchRequest is the wire form of POST /v1/batch: many flow requests,
// one round trip, index-ordered results. Heavy clients (benchmark
// sweeps across corners, Pareto explorations) use it to amortize
// connection and scheduling overhead; each item still flows through
// the content-addressed cache individually, so a batch mixing warm and
// cold work pays only for the cold part.
type BatchRequest struct {
	Requests []FlowRequest `json:"requests"`
	// Workers bounds item fan-out; 0 runs all items concurrently
	// (admission still bounds actual engine concurrency). Results are
	// identical at any value.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS caps the whole batch's deadline. Per-item timeout_ms is
	// rejected — items share the batch deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchItemResult is one item's outcome, at the same index as its
// request. Status is the HTTP status the item would have received as a
// standalone /v1/flow call; Flow carries the exact bytes a standalone
// call would have returned (so batch responses are byte-stable too).
type BatchItemResult struct {
	Status int             `json:"status"`
	Flow   json.RawMessage `json:"flow,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchResponse is the /v1/batch result body. The envelope itself is
// not cached — items are, individually — but it is a pure function of
// the item results, so identical batches on idle servers render
// identical bytes.
type BatchResponse struct {
	Key     string            `json:"key"`
	Results []BatchItemResult `json:"results"`
}

// DecodeBatchRequest parses and validates a /v1/batch body.
func DecodeBatchRequest(data []byte) (*BatchRequest, error) {
	var req BatchRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// As in DecodeFlowRequest: an explicit empty edit list is no edits.
	for i := range req.Requests {
		if len(req.Requests[i].Edits) == 0 {
			req.Requests[i].Edits = nil
		}
	}
	return &req, nil
}

// Validate checks the batch envelope and every item.
func (r *BatchRequest) Validate() error {
	if len(r.Requests) == 0 {
		return fmt.Errorf("serve: batch with no requests")
	}
	if len(r.Requests) > maxBatchItems {
		return fmt.Errorf("serve: %d requests exceeds the %d-item batch limit", len(r.Requests), maxBatchItems)
	}
	if r.Workers < 0 {
		return fmt.Errorf("serve: negative workers %d", r.Workers)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMS)
	}
	for i := range r.Requests {
		it := &r.Requests[i]
		if it.TimeoutMS != 0 {
			return fmt.Errorf("serve: batch item %d: per-item timeout_ms is not allowed; set the batch timeout_ms", i)
		}
		if err := it.Validate(); err != nil {
			return fmt.Errorf("serve: batch item %d: %w", i, err)
		}
	}
	return nil
}

// batchKeyVersion is folded into every batch key.
const batchKeyVersion = "smartndr/batch/v1"

// batchKey derives the envelope key from the item keys, in order. Two
// batches over the same items in the same order share a key; it names
// the batch in spans and the X-Key header but is not a cache address.
func batchKey(keys []string) string {
	h := sha256.New()
	io.WriteString(h, batchKeyVersion)
	for _, k := range keys {
		io.WriteString(h, "|")
		io.WriteString(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batch serves POST /v1/batch. The envelope succeeds (200) once it
// decodes and every key resolves; individual items carry their own
// status, so one failing item does not poison its siblings. Each item
// runs exactly the /v1/flow path — same cache, same admission gate per
// cold item, same runner, same statusOf — which is what makes item
// bytes and statuses identical to standalone responses.
func (s *Server) batch(r *http.Request, body []byte, sp *obs.Span, rtr *obs.Tracer) (reply, error) {
	req, err := DecodeBatchRequest(body)
	if err != nil {
		return reply{}, badRequest(err)
	}
	n := len(req.Requests)
	sp.Set(obs.I("items", n))
	keys := make([]string, n)
	for i := range req.Requests {
		keys[i], err = s.runner.FlowKey(&req.Requests[i])
		if err != nil {
			return reply{}, badRequest(fmt.Errorf("serve: batch item %d: %w", i, err))
		}
	}
	key := batchKey(keys)

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	workers := req.Workers
	if workers <= 0 || workers > n {
		workers = n
	}
	results := make([]BatchItemResult, n)
	outcomes := make([]string, n)
	// fn never returns an error: item failures land in the item's
	// result so siblings keep running. Every item is dispatched even
	// past the deadline — each resolves its status against ctx exactly
	// as a standalone /v1/flow would, so an item the deadline overtakes
	// reports 504 rather than never running.
	_ = par.ForEach(context.WithoutCancel(ctx), workers, n, func(i int) error {
		item := &req.Requests[i]
		out, oc, err := s.runCached(ctx, keys[i], func(ctx context.Context) (any, error) {
			return s.runner.RunFlow(ctx, item, rtr)
		})
		outcomes[i] = oc
		if err != nil {
			status := statusOf(err)
			s.tally(status)
			results[i] = BatchItemResult{Status: status, Error: err.Error()}
			return nil
		}
		results[i] = BatchItemResult{Status: http.StatusOK, Flow: out}
		return nil
	})

	outcome := CacheHit
	for i := range results {
		if results[i].Status != http.StatusOK ||
			(outcomes[i] != CacheHit && outcomes[i] != CacheShared) {
			outcome = CacheMiss
			break
		}
	}
	out, err := json.Marshal(BatchResponse{Key: key, Results: results})
	// The trailing newline (json.Encoder framing) is part of the batch
	// body's byte contract.
	return reply{key: key, cache: outcome, body: append(out, '\n')}, err
}
