package cluster

import (
	"fmt"
	"math/big"

	"fpgasched/api"
	"fpgasched/internal/core"
)

// VerdictFromCertificate reconstructs an in-process core.Verdict from a
// canonical-order wire certificate: Fleet.Fetch turns every peer-served
// certificate into the verdict the local engine would have cached, so
// the caller remaps, caches and serves it exactly as a local cache hit
// (engine.RemapVerdict, engine.InsertCanonical). The exact fraction
// strings parse back losslessly (RatString forms are reduced, and
// big.Rat.SetString reproduces them), so reconstruct-then-certify
// round-trips byte-identically — pinned by TestCertificateRoundTrip. A
// malformed certificate returns an error, which Fetch counts as a
// failed fetch.
func VerdictFromCertificate(c api.Verdict) (core.Verdict, error) {
	v := core.Verdict{
		Test:        c.Test,
		Schedulable: c.Schedulable,
		Reason:      c.Reason,
		FailingTask: -1,
		AcceptedBy:  c.AcceptedBy,
	}
	if c.FailingTask != nil {
		v.FailingTask = *c.FailingTask
	}
	for i, chk := range c.Checks {
		bc := core.BoundCheck{TaskIndex: chk.TaskIndex, Satisfied: chk.Satisfied, Condition: chk.Condition}
		var err error
		if bc.LHS, err = parseRat(chk.LHS); err != nil {
			return core.Verdict{}, fmt.Errorf("check %d lhs: %w", i, err)
		}
		if bc.RHS, err = parseRat(chk.RHS); err != nil {
			return core.Verdict{}, fmt.Errorf("check %d rhs: %w", i, err)
		}
		if bc.Lambda, err = parseRat(chk.Lambda); err != nil {
			return core.Verdict{}, fmt.Errorf("check %d lambda: %w", i, err)
		}
		v.Checks = append(v.Checks, bc)
	}
	for i, sub := range c.SubVerdicts {
		sv, err := VerdictFromCertificate(sub)
		if err != nil {
			return core.Verdict{}, fmt.Errorf("sub-verdict %d: %w", i, err)
		}
		v.SubVerdicts = append(v.SubVerdicts, sv)
	}
	return v, nil
}

// parseRat parses an exact fraction string; "" means absent (nil).
func parseRat(s string) (*big.Rat, error) {
	if s == "" {
		return nil, nil
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("not a rational: %q", s)
	}
	return r, nil
}
