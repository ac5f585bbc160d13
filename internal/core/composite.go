package core

import (
	"context"
	"strings"

	"fpgasched/internal/task"
)

// Composite combines several sufficient tests with any-of semantics: the
// taskset is accepted as soon as one member accepts it. This realises the
// paper's Section 6 recommendation: "different schedulability bounds
// should be applied together, i.e., determine that a taskset is
// unschedulable only if all tests fail."
//
// Callers must only combine tests valid for the scheduler they intend to
// use: GN1 is valid for EDF-NF but not EDF-FkF, so ForNF/ForFkF are the
// recommended constructors.
type Composite struct {
	Tests []Test
}

// ForNF returns the composite of all three tests, valid for EDF-NF.
func ForNF() Composite {
	return Composite{Tests: []Test{DPTest{}, GN1Test{}, GN2Test{}}}
}

// ForFkF returns the composite of the tests valid for EDF-FkF (DP and
// GN2; GN1's per-task area slack does not hold under First-k-Fit).
func ForFkF() Composite {
	return Composite{Tests: []Test{DPTest{}, GN2Test{}}}
}

// Name implements Test.
func (c Composite) Name() string {
	names := make([]string, len(c.Tests))
	for i, t := range c.Tests {
		names[i] = t.Name()
	}
	return "any(" + strings.Join(names, "|") + ")"
}

// Analyze implements Test. The verdict is structured rather than
// flattened: AcceptedBy names the member whose proof accepted the set
// (its Checks and FailingTask are promoted to the top level), and
// SubVerdicts records the full verdict of every member evaluated — so
// on an all-reject, each member's own Checks and FailingTask
// attribution survive instead of collapsing into one joined string.
// The top-level Reason still joins the member reasons for human
// consumption; the structured fields are authoritative.
func (c Composite) Analyze(ctx context.Context, dev Device, s *task.Set) Verdict {
	return c.analyze(ctx, dev, s, true)
}

// analyze is Analyze with the evidence flag forwarded to every member
// (see Decide).
func (c Composite) analyze(ctx context.Context, dev Device, s *task.Set, evidence bool) Verdict {
	name := c.Name()
	out := Verdict{Test: name, FailingTask: -1}
	var reasons []string
	for _, t := range c.Tests {
		v := analyzeWith(ctx, t, dev, s, evidence)
		out.SubVerdicts = append(out.SubVerdicts, v)
		if v.Err != nil {
			// A cancelled member means the composite has no answer: a
			// later member might have accepted. Propagate the abort.
			out.Schedulable = false
			out.Reason = v.Reason
			out.Err = v.Err
			return out
		}
		if v.Schedulable {
			out.Schedulable = true
			out.AcceptedBy = t.Name()
			out.Checks = v.Checks
			return out
		}
		reasons = append(reasons, t.Name()+": "+v.Reason)
	}
	// All members rejected. Keep the last member's per-task evidence at
	// the top level for continuity with the pre-structured behaviour;
	// every member's evidence is in SubVerdicts.
	if n := len(out.SubVerdicts); n > 0 {
		last := out.SubVerdicts[n-1]
		out.Checks = last.Checks
		out.FailingTask = last.FailingTask
	}
	out.Reason = strings.Join(reasons, "; ")
	return out
}
