package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"net/http"

	"fpgasched/api"
)

// SimulateTrace runs one simulation and follows its NDJSON scheduler
// event stream (POST /v1/simulate/trace) as an iterator: interval and
// miss events in simulation-time order, terminated by exactly one
// "result" event (carrying the same summary /v1/simulate returns) or
// "error" event. Validation failures surface before the first yield as
// an *api.Error, exactly as on Simulate.
//
// Each iteration yields (event, nil) or, once, (zero, err) when the
// stream itself fails — a transport error or ctx's cancellation.
// Breaking out of the loop early closes the stream; the server-side run
// completes at its bounded horizon regardless. The call is never
// retried (a mid-stream retry would replay already-seen events).
func (c *Client) SimulateTrace(ctx context.Context, req api.TraceRequest) iter.Seq2[api.TraceEvent, error] {
	body, err := json.Marshal(req)
	if err != nil {
		return func(yield func(api.TraceEvent, error) bool) {
			yield(api.TraceEvent{}, fmt.Errorf("client: encoding request: %w", err))
		}
	}
	return stream[api.TraceEvent](ctx, c, func(ctx context.Context) (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/simulate/trace", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		return hreq, nil
	})
}
