package cluster

import (
	"context"
	"encoding/json"
	"testing"

	"fpgasched/api"
	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// canonicalVerdict analyzes the canonical reordering of set — the exact
// verdict the engine caches under the set's fingerprint and the owner
// node serves on POST /v1/cache/lookup.
func canonicalVerdict(t *testing.T, tt core.Test, columns int, set *task.Set, perm []int) core.Verdict {
	t.Helper()
	v := tt.Analyze(context.Background(), core.NewDevice(columns), set.CanonicalFromPerm(perm))
	if v.Err != nil {
		t.Fatalf("%s: analysis error: %v", tt.Name(), v.Err)
	}
	return v
}

// TestCertificateRoundTrip pins the losslessness that makes the
// peer-fetch writeback sound: certificate → core.Verdict → certificate
// is byte-identical, so a verdict seeded into the local cache from a
// peer serves future requests exactly as a locally analyzed one would.
func TestCertificateRoundTrip(t *testing.T) {
	const columns = workload.TableDeviceColumns
	tests, err := core.TestsByName(core.TestNames())
	if err != nil {
		t.Fatal(err)
	}
	for si, set := range []*task.Set{workload.Table1(), workload.Table2(), workload.Table3()} {
		perm := set.CanonicalPerm()
		for _, tt := range tests {
			v := canonicalVerdict(t, tt, columns, set, perm)
			cert := api.VerdictFromCore(v, true)
			back, err := VerdictFromCertificate(cert)
			if err != nil {
				t.Fatalf("table %d test %s: reconstruct: %v", si+1, tt.Name(), err)
			}
			want, _ := json.Marshal(cert)
			got, _ := json.Marshal(api.VerdictFromCore(back, true))
			if string(want) != string(got) {
				t.Fatalf("table %d test %s round trip drifted:\nbefore: %s\nafter:  %s",
					si+1, tt.Name(), want, got)
			}
		}
	}
}

func TestVerdictFromCertificateRejectsMalformed(t *testing.T) {
	bad := api.Verdict{Checks: []api.Check{{LHS: "not-a-rational"}}}
	if _, err := VerdictFromCertificate(bad); err == nil {
		t.Fatal("malformed LHS must be rejected, not cached")
	}
	bad = api.Verdict{SubVerdicts: []api.Verdict{{Checks: []api.Check{{Lambda: "1/"}}}}}
	if _, err := VerdictFromCertificate(bad); err == nil {
		t.Fatal("malformed sub-verdict must be rejected")
	}
}
