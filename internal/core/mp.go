// Baseline and partitioned schedulability tests adapted into the shared
// Test interface, so the serving registry (TestByName) can route them
// through the engine's fingerprint-keyed memoization, batch streaming,
// cluster cache lookup and experiment jobs exactly like the paper's own
// tests.
//
// Two families are adapted:
//
//   - MPTest wraps the classic global-EDF multiprocessor tests of
//     internal/mpsched (GFB, BCL, BAK2). Multiprocessor scheduling is
//     exactly FPGA scheduling where every task has area 1 and the device
//     has m columns (paper Section 1), so the adapters interpret
//     Device.Columns as the processor count m and reject sets with any
//     wider task — applying an area-blind bound to a multi-column task
//     would be unsound.
//   - PartitionTest wraps internal/partition's first-fit-decreasing
//     planner. A successful plan is a complete static schedule (disjoint
//     column regions, uniprocessor EDF inside each), so acceptance is a
//     sound certificate — but for *partitioned* EDF, not for the global
//     EDF-NF/FkF policies the other registry entries certify; it carries
//     the ValidityPartitioned label so admission gating cannot confuse
//     the two.
//
// Order-invariance contract: both adapters analyse the canonical
// (fingerprint) ordering of the set internally and translate the
// index-bearing verdict fields back to the caller's task order, and
// their Reason strings never embed task indices. A direct library call
// is therefore byte-identical to the engine-served (cache + remap) path
// under any permutation of the input — the property pinned by the
// registry differential tests.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"fpgasched/internal/mpsched"
	"fpgasched/internal/partition"
	"fpgasched/internal/task"
)

// MPKind selects which multiprocessor baseline test an MPTest runs.
type MPKind int

// The adapted internal/mpsched tests.
const (
	// MPGFB is the Goossens–Funk–Baruah utilization bound (implicit
	// deadlines).
	MPGFB MPKind = iota
	// MPBCL is the Bertogna–Cirinei–Lipari interference test (constrained
	// deadlines) that GN1 generalises.
	MPBCL
	// MPBAK2 is Baker's λ-parameterised busy-interval test that GN2
	// generalises.
	MPBAK2
)

// MPTest adapts one internal/mpsched global-EDF multiprocessor test to
// the Test interface. Device.Columns is the processor count m; only
// unit-area tasksets are in scope (see the file comment).
type MPTest struct {
	Kind MPKind
}

// Name returns the registry identifier.
func (t MPTest) Name() string {
	switch t.Kind {
	case MPBCL:
		return "MP-BCL"
	case MPBAK2:
		return "MP-BAK2"
	default:
		return "MP-GFB"
	}
}

// Analyze runs the multiprocessor test on the canonical ordering of s
// and reports the verdict in the caller's task order.
func (t MPTest) Analyze(ctx context.Context, dev Device, s *task.Set) Verdict {
	name := t.Name()
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	perm := s.CanonicalPerm()
	canon := s.CanonicalFromPerm(perm)
	for ci, tk := range canon.Tasks {
		if tk.A != 1 {
			return Verdict{
				Test:        name,
				Schedulable: false,
				Reason:      "multiprocessor baseline requires unit-area tasks",
				FailingTask: perm[ci],
			}
		}
	}
	var mv mpsched.Verdict
	switch t.Kind {
	case MPBCL:
		mv = mpsched.BCL(dev.Columns, canon)
	case MPBAK2:
		mv = mpsched.BAK2(dev.Columns, canon, mpsched.BAK2Options{})
	default:
		mv = mpsched.GFB(dev.Columns, canon)
	}
	out := Verdict{
		Test:        name,
		Schedulable: mv.Schedulable,
		Reason:      mv.Reason,
		FailingTask: -1,
	}
	if !mv.Schedulable && mv.FailingTask >= 0 && mv.FailingTask < len(perm) {
		out.FailingTask = perm[mv.FailingTask]
	}
	return out
}

// PartitionTest adapts internal/partition's first-fit-decreasing planner
// to the Test interface. An accepting verdict's Checks carry the plan
// itself: one check per task, Satisfied, with LHS/RHS holding the
// assigned partition's column interval [lo, hi) as exact integers — a
// placement witness that any consumer can re-validate against the
// device width and the per-partition EDF condition.
type PartitionTest struct{}

// Name returns the registry identifier.
func (PartitionTest) Name() string { return "partition" }

// Analyze plans the canonical ordering of s and reports the verdict in
// the caller's task order.
func (PartitionTest) Analyze(ctx context.Context, dev Device, s *task.Set) Verdict {
	const name = "partition"
	if err := ctx.Err(); err != nil {
		return aborted(name, err)
	}
	if v, ok := precheck(name, dev, s); !ok {
		return v
	}
	perm := s.CanonicalPerm()
	canon := s.CanonicalFromPerm(perm)
	plan, err := partition.FirstFitDecreasing(dev.Columns, canon)
	if err != nil {
		out := Verdict{Test: name, Schedulable: false, Reason: err.Error(), FailingTask: -1}
		var pe *partition.PlacementError
		if errors.As(err, &pe) {
			out.FailingTask = perm[pe.Task]
			if pe.Alone {
				out.Reason = "not EDF-schedulable even in a dedicated partition"
			} else {
				out.Reason = fmt.Sprintf("no partition fits: %d of %d columns already allocated", pe.Used, pe.Columns)
			}
		}
		return out
	}
	out := Verdict{
		Test:        name,
		Schedulable: true,
		FailingTask: -1,
		Checks:      make([]BoundCheck, len(canon.Tasks)),
	}
	for ci := range canon.Tasks {
		region := plan.Partitions[plan.Assignment[ci]].Region
		out.Checks[ci] = BoundCheck{
			TaskIndex: perm[ci],
			LHS:       new(big.Rat).SetInt64(int64(region.Lo)),
			RHS:       new(big.Rat).SetInt64(int64(region.Hi)),
			Satisfied: true,
		}
	}
	sort.Slice(out.Checks, func(i, j int) bool { return out.Checks[i].TaskIndex < out.Checks[j].TaskIndex })
	return out
}
