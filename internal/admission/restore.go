package admission

import (
	"fmt"

	"fpgasched/internal/task"
)

// WAL replay (internal/durable) rebuilds controllers without
// re-proving. Live mutations need no inverse here: the server logs
// each one before it is applied (RequestLogged, ReleaseLogged), so a
// failed append leaves nothing to roll back.

// ForceAdmit inserts t without running the schedulability analysis. It
// exists for WAL replay: t was proven schedulable when it was admitted
// live and the analyses are deterministic, so re-proving on recovery
// would spend an exact analysis per resident to learn a recorded fact.
// Name, duplicate and intrinsic-validity checks still apply — a log
// that fails them is corrupt, not merely stale. The append is in place
// (no per-record clone): every accessor hands out copies, so the
// resident slice is never aliased outside the lock, and replaying R
// records costs O(R) instead of O(R²).
func (c *Controller) ForceAdmit(t task.Task) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Name == "" {
		return fmt.Errorf("admission: replayed task must be named")
	}
	if _, dup := c.byName[t.Name]; dup {
		return fmt.Errorf("admission: replayed task %q already resident", t.Name)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("admission: replayed task: %w", err)
	}
	c.resident.Tasks = append(c.resident.Tasks, t)
	c.byName[t.Name] = c.resident.Len() - 1
	for _, st := range c.states {
		if st != nil {
			st.CommitReplay(t)
		}
	}
	return nil
}
