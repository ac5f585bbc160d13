package admission

import (
	"fmt"

	"fpgasched/internal/task"
)

// The methods here serve the durability layer (internal/durable): WAL
// replay rebuilds controllers without re-proving, and the server's
// apply-then-log mutation order needs exact inverses to roll back a
// mutation whose log append failed.

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

// AbortAdmit rolls back the admission of name — the exact inverse of
// an admitting Request, for an admission whose log append failed. The
// task leaves the resident set (it is the last resident, so no other
// task moves), and the request is recounted from Admitted to Aborted:
// its caller was told it failed, so it was neither admitted nor
// rejected. Releases does not move. It returns false if name is not
// resident.
func (c *Controller) AbortAdmit(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.byName[name]
	if !ok {
		return false
	}
	removed := c.removeAtLocked(idx)
	for _, st := range c.states {
		if st != nil {
			st.CommitRemove(removed, idx)
		}
	}
	c.stats.Admitted--
	c.stats.Aborted++
	return true
}

// Remove removes a resident task by name, returning the removed task
// and the index it occupied so Reinsert can restore it exactly. It is
// Release with a rollback handle; ok is false if absent. Like Release
// it swap-deletes: the last task moves into the vacated index.
func (c *Controller) Remove(name string) (t task.Task, idx int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok = c.byName[name]
	if !ok {
		return task.Task{}, 0, false
	}
	t = c.removeAtLocked(idx)
	for _, st := range c.states {
		if st != nil {
			st.CommitRemove(t, idx)
		}
	}
	c.stats.Releases++
	return t, idx, true
}

// Reinsert restores t at index idx — the exact inverse of the
// swap-delete Remove, for rolling back a release whose log append
// failed: the task currently occupying idx (the one Remove moved there
// from the end) returns to the end, and t takes idx back. The set it
// restores was resident (and therefore proven) moments ago, so no
// re-analysis is run. It takes back the release Remove counted.
func (c *Controller) Reinsert(t task.Task, idx int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx < 0 || idx > c.resident.Len() {
		return fmt.Errorf("admission: reinsert index %d outside resident set of %d", idx, c.resident.Len())
	}
	if _, dup := c.byName[t.Name]; dup {
		return fmt.Errorf("admission: reinserted task %q already resident", t.Name)
	}
	ts := c.resident.Tasks
	if idx == len(ts) {
		c.resident.Tasks = append(ts, t)
	} else {
		moved := ts[idx]
		c.resident.Tasks = append(ts, moved)
		c.resident.Tasks[idx] = t
		c.byName[moved.Name] = len(c.resident.Tasks) - 1
	}
	c.byName[t.Name] = idx
	for _, st := range c.states {
		if st != nil {
			st.CommitReinsert(t, idx)
		}
	}
	c.stats.Releases--
	return nil
}
