package server

// /v1/placement — the 2-D placement surface over internal/twod.
//
// POST /v1/placement/check is the stateless layout-feasibility test:
// can every task of the set simultaneously hold a dedicated rectangle?
// Its accepting verdict carries the placement witness, and because the
// check is deterministic the served document is byte-identical to a
// direct twod.CheckFeasibility call — the same explain/certificate
// parity contract the 1-D registry tests keep.
//
// The placement controllers are the region-aware admission path: each
// named controller owns a live maximal-rectangles layout; admitting a
// task places its W×H rectangle (the response carries the assigned
// region, which the task owns until released). Placement is stateful
// and order-dependent by nature — unlike the 1-D registry tests there
// is no canonical-order memoization here, and none would be sound.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"fpgasched/api"
	"fpgasched/internal/twod"
)

// tenant2D is one named placement controller: a live layout plus the
// resident tasks by name, all guarded by the tenant lock.
type tenant2D struct {
	tenantBase
	heuristic twod.Heuristic

	layout *twod.Layout
	tasks  map[string]placed2D
	nextID int64
}

// placed2D is one resident 2-D task and its assigned region.
type placed2D struct {
	task twod.Task
	rect twod.Rect
	id   int64
}

func (t *tenant2D) info(name string) api.PlacementControllerInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return api.PlacementControllerInfo{
		Name:      name,
		Width:     t.layout.Width(),
		Height:    t.layout.Height(),
		Heuristic: t.heuristic.String(),
		Resident:  t.layout.Resident(),
		FreeArea:  t.layout.FreeArea(),
	}
}

// checkDims validates a 2-D device description.
func checkDims(width, height int) *api.Error {
	if width < 1 || height < 1 {
		return api.Errorf(api.CodeInvalidDevice, "device %dx%d must have positive dimensions", width, height).
			WithDetail("width", strconv.Itoa(width)).WithDetail("height", strconv.Itoa(height))
	}
	return nil
}

// parseHeuristic resolves the wire heuristic name or reports
// unknown_heuristic.
func parseHeuristic(name string) (twod.Heuristic, *api.Error) {
	h, err := twod.ParseHeuristic(name)
	if err != nil {
		return 0, api.Errorf(api.CodeUnknownHeuristic, "unknown heuristic %q (known: bottom-left, best-short-side, best-area)", name).
			WithDetail("heuristic", name)
	}
	return h, nil
}

// ---- POST /v1/placement/check ----

func (s *Server) handlePlacementCheck(w http.ResponseWriter, r *http.Request) {
	var req api.PlacementCheckRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	if req.Taskset == nil {
		writeError(w, api.Errorf(api.CodeInvalidRequest, "taskset is required"))
		return
	}
	if e := checkDims(req.Width, req.Height); e != nil {
		writeError(w, e)
		return
	}
	heur, apiErr := parseHeuristic(req.Heuristic)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if s.maxTasks > 0 && len(req.Taskset.Tasks) > s.maxTasks {
		writeError(w, api.Errorf(api.CodeLimitExceeded, "%d tasks exceeds the per-set limit of %d", len(req.Taskset.Tasks), s.maxTasks).
			WithDetail("limit", strconv.Itoa(s.maxTasks)))
		return
	}
	set, err := req.Taskset.Model()
	if err != nil {
		writeError(w, api.Errorf(api.CodeInvalidTaskset, "%v", err))
		return
	}
	verdict, err := twod.CheckFeasibility(req.Width, req.Height, set, heur)
	if err != nil {
		writeError(w, api.Errorf(api.CodeInvalidTaskset, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, api.PlacementCheckResponseFrom(verdict))
}

// ---- /v1/placement/controllers ----

func (s *Server) handlePlacementList(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) {
		return
	}
	ctrls := s.placements.snapshot()
	infos := make([]api.PlacementControllerInfo, 0, len(ctrls))
	for _, c := range ctrls {
		infos = append(infos, c.t.info(c.name))
	}
	writeJSON(w, http.StatusOK, api.PlacementControllerList{Controllers: infos})
}

func (s *Server) handlePlacementCreate(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) || !s.mutable(w) {
		return
	}
	name := r.PathValue("name")
	var req api.PlacementControllerRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	if e := checkDims(req.Width, req.Height); e != nil {
		writeError(w, e)
		return
	}
	heur, apiErr := parseHeuristic(req.Heuristic)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	t := &tenant2D{
		heuristic: heur,
		layout:    twod.NewLayout(req.Width, req.Height),
		tasks:     make(map[string]placed2D),
	}
	if !s.placements.create(w, name, t, s.logStep(w, recCreatePlacement(name, req.Width, req.Height, heur.String()))) {
		return
	}
	writeJSON(w, http.StatusCreated, t.info(name))
}

func (s *Server) handlePlacementDelete(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) || !s.mutable(w) {
		return
	}
	name := r.PathValue("name")
	if s.placements.delete(w, name, s.logStep(w, recDeletePlacement(name))) {
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handlePlacementAdmit(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) || !s.mutable(w) {
		return
	}
	name := r.PathValue("name")
	if _, ok := s.placements.get(w, name); !ok {
		return
	}
	var wt api.Task2D
	if err := decodeJSON(r, &wt); err != nil {
		writeError(w, decodeErr(err))
		return
	}
	tk, err := wt.Model()
	if err != nil {
		writeError(w, api.Errorf(api.CodeInvalidTaskset, "%v", err))
		return
	}
	if err := tk.Validate(); err != nil {
		writeError(w, api.Errorf(api.CodeInvalidTaskset, "%v", err))
		return
	}
	if tk.Name == "" {
		writeError(w, api.Errorf(api.CodeInvalidTaskset, "task name is required (it keys release)"))
		return
	}
	t, ok := s.placements.lock(w, name)
	if !ok {
		return
	}
	defer t.mu.Unlock()
	if _, dup := t.tasks[tk.Name]; dup {
		writeError(w, api.Errorf(api.CodeConflict, "task %q is already placed (release it first)", tk.Name))
		return
	}
	if s.maxTasks > 0 && len(t.tasks) >= s.maxTasks {
		writeErrorStatus(w, http.StatusConflict,
			api.Errorf(api.CodeLimitExceeded, "placement controller %q is at the %d-task resident capacity", name, s.maxTasks).
				WithDetail("limit", strconv.Itoa(s.maxTasks)))
		return
	}
	if tk.W > t.layout.Width() || tk.H > t.layout.Height() {
		// A task that can never fit is a client error, not a rejection: a
		// rejection invites retry after other releases, which cannot help.
		writeError(w, api.Errorf(api.CodeInvalidDevice, "task %dx%d exceeds device %dx%d",
			tk.W, tk.H, t.layout.Width(), t.layout.Height()))
		return
	}
	rect, fits := t.layout.Fit(tk.W, tk.H, t.heuristic)
	if !fits {
		writeJSON(w, http.StatusOK, api.PlacementAdmitResponse{
			Reason: fmt.Sprintf("no free region fits a %dx%d rectangle", tk.W, tk.H),
		})
		return
	}
	// The record carries the assigned rectangle and ID, not the
	// heuristic inputs: replay re-places at exactly this region, so
	// recovered layouts match even where heuristic tie-breaking depends
	// on the full arrival history.
	id := t.nextID + 1
	if s.logStep(w, recPlace(name, tk, rect, id))() != nil {
		return
	}
	t.layout.Commit(id, rect)
	t.nextID = id
	t.tasks[tk.Name] = placed2D{task: tk, rect: rect, id: id}
	wr := api.RectFrom(rect)
	writeJSON(w, http.StatusOK, api.PlacementAdmitResponse{Admitted: true, Rect: &wr})
}

func (s *Server) handlePlacementRelease(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) || !s.mutable(w) {
		return
	}
	name := r.PathValue("name")
	t, ok := s.placements.lock(w, name)
	if !ok {
		return
	}
	defer t.mu.Unlock()
	taskName := r.PathValue("task")
	p, resident := t.tasks[taskName]
	if !resident {
		writeError(w, api.Errorf(api.CodeNotFound, "no placed task %q in placement controller %q", taskName, name))
		return
	}
	if s.logStep(w, recUnplace(name, taskName))() != nil {
		return
	}
	t.layout.Remove(p.id)
	delete(t.tasks, taskName)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePlacementResident(w http.ResponseWriter, r *http.Request) {
	if !s.controllersReady(w) {
		return
	}
	name := r.PathValue("name")
	t, ok := s.placements.get(w, name)
	if !ok {
		return
	}
	t.mu.Lock()
	resp := api.PlacementResidentResponse{
		Name:          name,
		Width:         t.layout.Width(),
		Height:        t.layout.Height(),
		Count:         len(t.tasks),
		FreeArea:      t.layout.FreeArea(),
		Fragmentation: strconv.FormatFloat(t.layout.ExternalFragmentation(), 'f', 4, 64),
		Tasks:         make([]api.PlacementResident, 0, len(t.tasks)),
	}
	for _, p := range t.tasks {
		resp.Tasks = append(resp.Tasks, api.PlacementResident{Task: api.Task2DFrom(p.task), Rect: api.RectFrom(p.rect)})
	}
	t.mu.Unlock()
	sort.Slice(resp.Tasks, func(i, j int) bool { return resp.Tasks[i].Task.Name < resp.Tasks[j].Task.Name })
	writeJSON(w, http.StatusOK, resp)
}
