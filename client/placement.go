package client

import (
	"context"
	"net/http"
	"net/url"

	"fpgasched/api"
)

// PlacementCheck runs the stateless 2-D layout-feasibility check
// (POST /v1/placement/check). The check is pure and deterministic —
// the response (witness included) is byte-identical to a direct
// twod.CheckFeasibility call — so it is retried under the configured
// policy.
func (c *Client) PlacementCheck(ctx context.Context, req api.PlacementCheckRequest) (*api.PlacementCheckResponse, error) {
	var out api.PlacementCheckResponse
	if err := c.do(ctx, http.MethodPost, "/v1/placement/check", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreatePlacementController creates a named 2-D placement controller
// (PUT /v1/placement/controllers/{name}). Not retried: a duplicate
// create is a conflict, and a retry racing its own first attempt would
// misreport one.
func (c *Client) CreatePlacementController(ctx context.Context, name string, req api.PlacementControllerRequest) (*api.PlacementControllerInfo, error) {
	var out api.PlacementControllerInfo
	if err := c.do(ctx, http.MethodPut, "/v1/placement/controllers/"+url.PathEscape(name), req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeletePlacementController drops a placement controller
// (DELETE /v1/placement/controllers/{name}). Retried with delete
// semantics (see DeleteController): a retry answered not_found reports
// success.
func (c *Client) DeletePlacementController(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/placement/controllers/"+url.PathEscape(name), nil, nil, true)
}

// PlacementControllers lists the placement controllers
// (GET /v1/placement/controllers).
func (c *Client) PlacementControllers(ctx context.Context) ([]api.PlacementControllerInfo, error) {
	var out api.PlacementControllerList
	if err := c.do(ctx, http.MethodGet, "/v1/placement/controllers", nil, &out, true); err != nil {
		return nil, err
	}
	return out.Controllers, nil
}

// PlacementAdmit asks a placement controller to place one 2-D task
// (POST /v1/placement/controllers/{name}/admit). An admission carries
// the assigned rectangle, which the task owns until released. Never
// retried: admission mutates the layout, and a retry of a delivered
// admit would double-place or misreport a duplicate.
func (c *Client) PlacementAdmit(ctx context.Context, controller string, t api.Task2D) (*api.PlacementAdmitResponse, error) {
	var out api.PlacementAdmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/placement/controllers/"+url.PathEscape(controller)+"/admit", t, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// PlacementRelease frees a placed task's region
// (DELETE /v1/placement/controllers/{name}/tasks/{task}). Retried with
// delete semantics (see DeleteController): a retry answered not_found
// reports success.
func (c *Client) PlacementRelease(ctx context.Context, controller, taskName string) error {
	return c.do(ctx, http.MethodDelete,
		"/v1/placement/controllers/"+url.PathEscape(controller)+"/tasks/"+url.PathEscape(taskName), nil, nil, true)
}

// PlacementResident snapshots a placement controller's placed set
// (GET /v1/placement/controllers/{name}/resident).
func (c *Client) PlacementResident(ctx context.Context, controller string) (*api.PlacementResidentResponse, error) {
	var out api.PlacementResidentResponse
	if err := c.do(ctx, http.MethodGet, "/v1/placement/controllers/"+url.PathEscape(controller)+"/resident", nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}
