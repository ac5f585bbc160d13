package durable

import (
	"sort"

	"fpgasched/internal/task"
)

// shadow is the store's in-memory mirror of the logged state: every
// appended record is applied to it under the store mutex, so a
// compaction snapshot is a deterministic function of the record
// history — the store never reaches back into live server state.
// Replay uses the same apply rules, which is what makes recovery
// exact: the shadow after replay equals the shadow before the crash.
type shadow struct {
	controllers map[string]*ControllerState
	placements  map[string]*PlacementState
	// skipped counts records that referenced a missing target or
	// duplicated an existing one. The server logs each mutation before
	// applying it, under the tenant lock, so it never appends such a
	// record: a live skip is a server bug. Skips are tolerated (not
	// fatal) only for old logs, written when mutations were applied
	// before they were logged and a create racing a delete of the same
	// name could land first; a replay must not refuse to start over one.
	skipped uint64
}

func newShadow() *shadow {
	return &shadow{
		controllers: make(map[string]*ControllerState),
		placements:  make(map[string]*PlacementState),
	}
}

// shadowFrom seeds a shadow from a loaded snapshot.
func shadowFrom(snap *Snapshot) *shadow {
	s := newShadow()
	if snap == nil {
		return s
	}
	for _, c := range snap.Controllers {
		cc := c
		cc.Tests = append([]string(nil), c.Tests...)
		cc.Tasks = append([]task.Task(nil), c.Tasks...)
		s.controllers[c.Name] = &cc
	}
	for _, p := range snap.Placements {
		pp := p
		pp.Tasks = append([]PlacedTask(nil), p.Tasks...)
		s.placements[p.Name] = &pp
	}
	return s
}

// apply folds one record into the shadow.
func (s *shadow) apply(r Record) {
	switch r.Op {
	case OpCreateController:
		if _, dup := s.controllers[r.Controller]; dup {
			s.skipped++
			return
		}
		s.controllers[r.Controller] = &ControllerState{
			Name:    r.Controller,
			Columns: r.Columns,
			Tests:   append([]string(nil), r.Tests...),
		}
	case OpDeleteController:
		if _, ok := s.controllers[r.Controller]; !ok {
			s.skipped++
			return
		}
		delete(s.controllers, r.Controller)
	case OpAdmit:
		c, ok := s.controllers[r.Controller]
		if !ok || r.Task == nil || c.taskIndex(r.Task.Name) >= 0 {
			s.skipped++
			return
		}
		c.Tasks = append(c.Tasks, *r.Task)
	case OpRelease:
		c, ok := s.controllers[r.Controller]
		if !ok {
			s.skipped++
			return
		}
		i := c.taskIndex(r.TaskName)
		if i < 0 {
			s.skipped++
			return
		}
		// Swap-delete, mirroring the admission controller's release: the
		// recovered resident order must equal the live order, and the
		// resident set is order-insensitive for analysis.
		last := len(c.Tasks) - 1
		c.Tasks[i] = c.Tasks[last]
		c.Tasks = c.Tasks[:last]
	case OpCreatePlacement:
		if _, dup := s.placements[r.Controller]; dup {
			s.skipped++
			return
		}
		s.placements[r.Controller] = &PlacementState{
			Name:      r.Controller,
			Width:     r.Width,
			Height:    r.Height,
			Heuristic: r.Heuristic,
		}
	case OpDeletePlacement:
		if _, ok := s.placements[r.Controller]; !ok {
			s.skipped++
			return
		}
		delete(s.placements, r.Controller)
	case OpPlace:
		p, ok := s.placements[r.Controller]
		if !ok || r.Task2D == nil || r.Rect == nil || p.taskIndex(r.Task2D.Name) >= 0 {
			s.skipped++
			return
		}
		p.Tasks = append(p.Tasks, PlacedTask{Task: *r.Task2D, Rect: *r.Rect, ID: r.ID})
		if r.ID > p.NextID {
			p.NextID = r.ID
		}
	case OpUnplace:
		p, ok := s.placements[r.Controller]
		if !ok {
			s.skipped++
			return
		}
		i := p.taskIndex(r.TaskName)
		if i < 0 {
			s.skipped++
			return
		}
		p.Tasks = append(p.Tasks[:i], p.Tasks[i+1:]...)
	default:
		s.skipped++
	}
}

func (c *ControllerState) taskIndex(name string) int {
	for i, t := range c.Tasks {
		if t.Name == name {
			return i
		}
	}
	return -1
}

func (p *PlacementState) taskIndex(name string) int {
	for i, t := range p.Tasks {
		if t.Task.Name == name {
			return i
		}
	}
	return -1
}

// snapshot captures the shadow as an independent Snapshot, sorted by
// name for determinism.
func (s *shadow) snapshot(lastSeq uint64) *Snapshot {
	snap := &Snapshot{LastSeq: lastSeq}
	for _, c := range s.controllers {
		cc := *c
		cc.Tests = append([]string(nil), c.Tests...)
		cc.Tasks = append([]task.Task(nil), c.Tasks...)
		snap.Controllers = append(snap.Controllers, cc)
	}
	sort.Slice(snap.Controllers, func(i, j int) bool { return snap.Controllers[i].Name < snap.Controllers[j].Name })
	for _, p := range s.placements {
		pp := *p
		pp.Tasks = append([]PlacedTask(nil), p.Tasks...)
		snap.Placements = append(snap.Placements, pp)
	}
	sort.Slice(snap.Placements, func(i, j int) bool { return snap.Placements[i].Name < snap.Placements[j].Name })
	return snap
}
