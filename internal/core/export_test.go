package core

import "fpgasched/internal/task"

// GN2SetStageRejects reports whether g's set-level stage rejects s on
// dev, as an evidence-free screened analysis would run it.
func GN2SetStageRejects(g GN2Test, dev Device, s *task.Set) bool {
	if _, ok := precheck(g.Name(), dev, s); !ok {
		return false
	}
	return g.setViolated(s, int64(dev.Columns-s.AMax()+1), int64(s.AMin()), nil)
}
