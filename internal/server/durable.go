package server

// Durability wiring (internal/durable, DESIGN.md "Durability").
//
// The server is the WAL's single writer, and every mutation of the
// controller registries is write-ahead: decide, log, apply. A mutating
// request takes its tenant's lock (tenants.go), decides what would
// change, appends the record through logStep, and only then changes
// memory. Holding the lock across [log + apply] makes the log order
// equal the apply order per tenant, which is what lets replay rebuild
// resident sets byte-identically. If the append fails, nothing has
// changed, so nothing is rolled back: the server latches degraded
// (controllers turn read-only, mutations answer 503 store_failed) and
// the daemon keeps serving analyses — a full crash would trade every
// tenant for a disk hiccup. The only undo left is a failed create's
// unpublish (tenants.create); no other mutation can have touched the
// tenant, because each waits on its lock and then finds it gone.
//
// Recovery is the other direction: fpgaschedd opens the store (which
// replays snapshot-then-log into a state image), calls Restore to
// rebuild live controllers from it, attaches the store, and only then
// marks the server ready. Until MarkReady, the controller and
// placement surfaces answer 503 not_ready — the daemon is up (so
// /healthz probes pass and analyses work) but tenant state is still
// materialising.

import (
	"fmt"
	"net/http"

	"fpgasched/api"
	"fpgasched/internal/admission"
	"fpgasched/internal/durable"
	"fpgasched/internal/task"
	"fpgasched/internal/twod"
)

// Store persists controller mutations for crash recovery. It is
// implemented by *durable.Store; the indirection keeps a no-op (nil)
// fast path for daemons running without -state-dir and lets tests
// inject failures.
type Store interface {
	// Append logs one mutation record, assigning its sequence. The
	// server calls it before applying the mutation; an error means the
	// record was NOT durably logged, and the mutation is abandoned
	// before it changes anything.
	Append(durable.Record) error
	// Metrics snapshots the store's counters for /metrics.
	Metrics() durable.Metrics
}

// storeRef boxes the Store interface for atomic.Pointer (AttachStore
// races with handler reads by design: the listener is up during
// replay).
type storeRef struct{ s Store }

// getStore returns the attached store, or nil when persistence is off.
func (s *Server) getStore() Store {
	if p := s.store.Load(); p != nil {
		return p.s
	}
	return nil
}

// AttachStore wires persistence after New. fpgaschedd constructs the
// server first (not ready), brings the listener up, replays, calls
// Restore, then AttachStore + MarkReady — so /readyz honestly reports
// 503 for the whole recovery window while mutations stay gated.
func (s *Server) AttachStore(st Store) {
	s.store.Store(&storeRef{s: st})
}

// MarkReady opens the controller surfaces after recovery. Servers
// created without Config.StartNotReady are born ready.
func (s *Server) MarkReady() {
	s.notReady.Store(false)
}

// controllersReady gates the controller and placement surfaces while
// recovery replays; false means a 503 not_ready was written.
func (s *Server) controllersReady(w http.ResponseWriter) bool {
	if s.notReady.Load() {
		writeError(w, api.Errorf(api.CodeNotReady, "controller state is still replaying; retry shortly"))
		return false
	}
	return true
}

// mutable gates controller mutations once the store has failed; false
// means a 503 store_failed was written. Reads are never gated: the
// in-memory state is still correct, it just cannot change durably.
func (s *Server) mutable(w http.ResponseWriter) bool {
	if s.degraded.Load() {
		writeError(w, api.Errorf(api.CodeStoreFailed, "durable store failed earlier; controllers are read-only until the daemon restarts"))
		return false
	}
	return true
}

// logStep returns the log step of one mutating request: the mutation
// calls it once it has decided what to change and before changing
// anything. The step appends rec (nothing when persistence is off); if
// the append fails it latches degraded mode, answers the request 503
// store_failed and returns the error, and the mutation is abandoned
// with nothing to undo.
func (s *Server) logStep(w http.ResponseWriter, rec durable.Record) func() error {
	return func() error {
		st := s.getStore()
		if st == nil {
			return nil
		}
		if err := st.Append(rec); err != nil {
			s.degraded.Store(true)
			writeError(w, storeFailed(err))
			return err
		}
		return nil
	}
}

// storeFailed is the mutation-lost error document: 503, code
// store_failed (distinct from not_found so delete retries can tell
// "already gone" from "not recorded").
func storeFailed(err error) *api.Error {
	return api.Errorf(api.CodeStoreFailed, "durable store failed (controllers are read-only): %v", err)
}

// Restore rebuilds the controller and placement registries from a
// recovered state image. It must run before MarkReady and before the
// store is attached: nothing is re-logged, and the readiness gate is
// what keeps concurrent traffic out of the half-built registries.
//
// 1-D residents are re-admitted with ForceAdmit — each was proven
// schedulable when admitted live, and the analyses are deterministic,
// so replay skips them and any re-requested certificate still comes
// out byte-identical. 2-D residents are re-placed at their recorded
// rectangles (twod's PlaceAt), never re-run through the heuristic, so
// recovered layouts are exact even where heuristic tie-breaking
// depends on arrival history.
func (s *Server) Restore(snap *durable.Snapshot) error {
	if snap == nil {
		return nil
	}
	for _, cs := range snap.Controllers {
		tests, clean, apiErr := resolveTests(cs.Tests)
		if apiErr != nil {
			return fmt.Errorf("server: restoring controller %q: %s", cs.Name, apiErr.Message)
		}
		ctrl, err := admission.NewController(cs.Columns, tests...)
		if err != nil {
			return fmt.Errorf("server: restoring controller %q: %w", cs.Name, err)
		}
		for _, tk := range cs.Tasks {
			if err := ctrl.ForceAdmit(tk); err != nil {
				return fmt.Errorf("server: restoring controller %q: %w", cs.Name, err)
			}
		}
		s.controllers.put(cs.Name, &tenant{ctrl: ctrl, columns: cs.Columns, tests: clean})
	}
	for _, ps := range snap.Placements {
		heur, err := twod.ParseHeuristic(ps.Heuristic)
		if err != nil {
			return fmt.Errorf("server: restoring placement controller %q: %w", ps.Name, err)
		}
		if ps.Width < 1 || ps.Height < 1 {
			return fmt.Errorf("server: restoring placement controller %q: device %dx%d", ps.Name, ps.Width, ps.Height)
		}
		t := &tenant2D{
			heuristic: heur,
			layout:    twod.NewLayout(ps.Width, ps.Height),
			tasks:     make(map[string]placed2D, len(ps.Tasks)),
			nextID:    ps.NextID,
		}
		for _, pt := range ps.Tasks {
			tk, err := pt.Task.Model()
			if err != nil {
				return fmt.Errorf("server: restoring placement controller %q: %w", ps.Name, err)
			}
			if err := t.layout.PlaceAt(pt.ID, pt.Rect.Model()); err != nil {
				return fmt.Errorf("server: restoring placement controller %q: %w", ps.Name, err)
			}
			t.tasks[tk.Name] = placed2D{task: tk, rect: pt.Rect.Model(), id: pt.ID}
		}
		s.placements.put(ps.Name, t)
	}
	return nil
}

// ---- durable.Record builders (keep handler bodies terse) ----

func recCreateController(name string, columns int, tests []string) durable.Record {
	return durable.Record{Op: durable.OpCreateController, Controller: name, Columns: columns, Tests: tests}
}

func recDeleteController(name string) durable.Record {
	return durable.Record{Op: durable.OpDeleteController, Controller: name}
}

func recAdmit(name string, tk task.Task) durable.Record {
	return durable.Record{Op: durable.OpAdmit, Controller: name, Task: &tk}
}

func recRelease(name, taskName string) durable.Record {
	return durable.Record{Op: durable.OpRelease, Controller: name, TaskName: taskName}
}

func recCreatePlacement(name string, width, height int, heuristic string) durable.Record {
	return durable.Record{Op: durable.OpCreatePlacement, Controller: name, Width: width, Height: height, Heuristic: heuristic}
}

func recDeletePlacement(name string) durable.Record {
	return durable.Record{Op: durable.OpDeletePlacement, Controller: name}
}

func recPlace(name string, tk twod.Task, r twod.Rect, id int64) durable.Record {
	t2 := durable.Task2DFrom(tk)
	rect := durable.RectFrom(r)
	return durable.Record{Op: durable.OpPlace, Controller: name, Task2D: &t2, Rect: &rect, ID: id}
}

func recUnplace(name, taskName string) durable.Record {
	return durable.Record{Op: durable.OpUnplace, Controller: name, TaskName: taskName}
}

// Compile-time check that the real store satisfies the interface.
var _ Store = (*durable.Store)(nil)
