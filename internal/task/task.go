// Package task defines the hardware-task model of Guan et al. (IPPS 2007).
//
// A hardware task τk = (Ck, Dk, Tk, Ak) releases a job every Tk time units
// (or with minimum inter-arrival Tk for sporadic tasks); each job needs Ck
// time units of execution on Ak contiguous FPGA columns and must finish
// within Dk time units of its release. The package provides the taskset
// container, validation against a device, exact utilization arithmetic,
// hyperperiod computation and (de)serialisation. All durations are exact
// fixed-point (see internal/timeunit) and all derived quantities used by
// schedulability analysis are exact rationals.
package task

import (
	"errors"
	"fmt"
	"math/big"
	"strings"

	"fpgasched/internal/timeunit"
)

// Task is one periodic or sporadic hardware task.
type Task struct {
	// Name is an optional human-readable identifier.
	Name string
	// C is the worst-case execution time of one job.
	C timeunit.Time
	// D is the relative deadline of each job.
	D timeunit.Time
	// T is the period (periodic) or minimum inter-arrival time (sporadic).
	T timeunit.Time
	// A is the area: the number of contiguous FPGA columns the task
	// occupies while executing. The paper argues A is an integer (column
	// count); that integrality is what sharpens Lemma 1's α bound.
	A int
}

// New constructs a task from decimal strings, panicking on syntax errors.
// It is a fixture helper for tests and examples; programmatic construction
// should fill the struct directly.
func New(name, c, d, t string, a int) Task {
	return Task{
		Name: name,
		C:    timeunit.MustParse(c),
		D:    timeunit.MustParse(d),
		T:    timeunit.MustParse(t),
		A:    a,
	}
}

// Validate checks the task's intrinsic well-formedness: positive C and T,
// positive D, positive area, and C ≤ D (a task with C > D can never meet
// any deadline). It does not check the task against a device; see
// Set.ValidateFor.
func (t Task) Validate() error {
	switch {
	case t.C <= 0:
		return fmt.Errorf("task %q: execution time C=%v must be positive", t.Name, t.C)
	case t.T <= 0:
		return fmt.Errorf("task %q: period T=%v must be positive", t.Name, t.T)
	case t.D <= 0:
		return fmt.Errorf("task %q: deadline D=%v must be positive", t.Name, t.D)
	case t.A < 1:
		return fmt.Errorf("task %q: area A=%d must be at least one column", t.Name, t.A)
	case t.C > t.D:
		return fmt.Errorf("task %q: C=%v exceeds D=%v; no job can ever meet its deadline", t.Name, t.C, t.D)
	}
	return nil
}

// UtilizationT returns the exact time utilization C/T.
func (t Task) UtilizationT() *big.Rat {
	return new(big.Rat).SetFrac64(int64(t.C), int64(t.T))
}

// UtilizationS returns the exact system utilization C·A/T, the fraction of
// the device-time product the task consumes.
func (t Task) UtilizationS() *big.Rat {
	u := new(big.Rat).SetFrac64(int64(t.C), int64(t.T))
	return u.Mul(u, new(big.Rat).SetInt64(int64(t.A)))
}

// DensityT returns C/min(D, T), the time density.
func (t Task) DensityT() *big.Rat {
	return new(big.Rat).SetFrac64(int64(t.C), int64(timeunit.Min(t.D, t.T)))
}

// ConstrainedDeadline reports whether D ≤ T.
func (t Task) ConstrainedDeadline() bool { return t.D <= t.T }

// ImplicitDeadline reports whether D = T.
func (t Task) ImplicitDeadline() bool { return t.D == t.T }

// String formats the task as name(C, D, T, A).
func (t Task) String() string {
	name := t.Name
	if name == "" {
		name = "task"
	}
	return fmt.Sprintf("%s(C=%v, D=%v, T=%v, A=%d)", name, t.C, t.D, t.T, t.A)
}

// Set is an ordered collection of tasks. Order matters only for
// presentation and deterministic tie-breaking; the schedulability tests
// are order-independent (and tested to be).
type Set struct {
	Tasks []Task
}

// NewSet builds a Set from tasks.
func NewSet(tasks ...Task) *Set {
	return &Set{Tasks: tasks}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{Tasks: make([]Task, len(s.Tasks))}
	copy(out.Tasks, s.Tasks)
	return out
}

// Len returns the number of tasks.
func (s *Set) Len() int { return len(s.Tasks) }

// Validate checks every task's intrinsic well-formedness.
func (s *Set) Validate() error {
	if len(s.Tasks) == 0 {
		return errors.New("taskset: empty")
	}
	for i, t := range s.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("taskset index %d: %w", i, err)
		}
	}
	return nil
}

// ValidateFor additionally checks that every task fits the device area.
func (s *Set) ValidateFor(deviceColumns int) error {
	if deviceColumns < 1 {
		return fmt.Errorf("device: area %d must be at least one column", deviceColumns)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	for i, t := range s.Tasks {
		if t.A > deviceColumns {
			return fmt.Errorf("taskset index %d: area %d exceeds device area %d", i, t.A, deviceColumns)
		}
	}
	return nil
}

// UtilizationT returns the exact total time utilization Σ Ci/Ti.
func (s *Set) UtilizationT() *big.Rat {
	sum := new(big.Rat)
	for _, t := range s.Tasks {
		sum.Add(sum, t.UtilizationT())
	}
	return sum
}

// UtilizationS returns the exact total system utilization Σ Ci·Ai/Ti.
// The terms are summed as one unreduced fraction over the product of
// the periods and reduced once at the end: the same value as adding one
// big.Rat per task, without a gcd on a growing denominator per task.
func (s *Set) UtilizationS() *big.Rat {
	num, den := new(big.Int), big.NewInt(1)
	var ca, a, t big.Int
	for _, tk := range s.Tasks {
		// num/den + Ci·Ai/Ti = (num·Ti + Ci·Ai·den) / (den·Ti)
		t.SetInt64(int64(tk.T))
		ca.Mul(ca.SetInt64(int64(tk.C)), a.SetInt64(int64(tk.A)))
		num.Add(num.Mul(num, &t), ca.Mul(&ca, den))
		den.Mul(den, &t)
	}
	return new(big.Rat).SetFrac(num, den)
}

// AMax returns the largest task area, or 0 for an empty set.
func (s *Set) AMax() int {
	m := 0
	for _, t := range s.Tasks {
		if t.A > m {
			m = t.A
		}
	}
	return m
}

// AMin returns the smallest task area, or 0 for an empty set.
func (s *Set) AMin() int {
	if len(s.Tasks) == 0 {
		return 0
	}
	m := s.Tasks[0].A
	for _, t := range s.Tasks[1:] {
		if t.A < m {
			m = t.A
		}
	}
	return m
}

// MaxT returns the largest period, or 0 for an empty set.
func (s *Set) MaxT() timeunit.Time {
	var m timeunit.Time
	for _, t := range s.Tasks {
		if t.T > m {
			m = t.T
		}
	}
	return m
}

// MaxD returns the largest relative deadline, or 0 for an empty set.
func (s *Set) MaxD() timeunit.Time {
	var m timeunit.Time
	for _, t := range s.Tasks {
		if t.D > m {
			m = t.D
		}
	}
	return m
}

// Hyperperiod returns the least common multiple of all periods, saturating
// at timeunit.MaxTime if it overflows int64 ticks.
func (s *Set) Hyperperiod() timeunit.Time {
	ts := make([]timeunit.Time, len(s.Tasks))
	for i, t := range s.Tasks {
		ts[i] = t.T
	}
	return timeunit.LCMAll(ts)
}

// ImplicitDeadlines reports whether every task has D = T.
func (s *Set) ImplicitDeadlines() bool {
	for _, t := range s.Tasks {
		if !t.ImplicitDeadline() {
			return false
		}
	}
	return true
}

// ConstrainedDeadlines reports whether every task has D ≤ T.
func (s *Set) ConstrainedDeadlines() bool {
	for _, t := range s.Tasks {
		if !t.ConstrainedDeadline() {
			return false
		}
	}
	return true
}

// ScaleExecution returns a copy of the set with every execution time
// multiplied by the exact rational num/den (rounded to the nearest tick,
// with a floor of one tick). It is used by stratified workload generation
// and by the reconfiguration-overhead ablation.
func (s *Set) ScaleExecution(num, den int64) *Set {
	out := s.Clone()
	for i := range out.Tasks {
		c := new(big.Rat).SetFrac64(int64(out.Tasks[i].C)*num, den)
		out.Tasks[i].C = ratToTicks(c)
		if out.Tasks[i].C < 1 {
			out.Tasks[i].C = 1
		}
	}
	return out
}

// ratToTicks rounds an exact tick-valued rational to the nearest tick.
func ratToTicks(r *big.Rat) timeunit.Time {
	num := new(big.Int).Set(r.Num())
	den := r.Denom()
	// round half up: (2*num + den) / (2*den), for non-negative values.
	num.Mul(num, big.NewInt(2)).Add(num, den)
	den2 := new(big.Int).Mul(den, big.NewInt(2))
	num.Div(num, den2)
	return timeunit.Time(num.Int64())
}

// String renders the set as a compact multi-line table.
func (s *Set) String() string {
	var b strings.Builder
	for i, t := range s.Tasks {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}
