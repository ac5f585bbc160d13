package api

// Golden-file tests freezing the v1 wire forms. Every wire type is
// marshalled from a canonical fixture and compared byte-for-byte against
// testdata/<name>.golden.json; a drift in a JSON key, a field type, the
// decimal duration encoding or an error code fails here before it can
// reach a client. Regenerate deliberately with:
//
//	go test ./api -run Golden -update
//
// and review the diff as a wire-contract change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fpgasched/internal/task"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func intp(i int) *int { return &i }

func fp(f float64) *float64 { return &f }

// fixtureSet is the paper's Table 3 pair, the canonical two-task set
// used across the repo's examples.
func fixtureSet() *TaskSet {
	return task.NewSet(
		task.New("t1", "2.10", "5", "5", 7),
		task.New("t2", "2.00", "7", "7", 7),
	)
}

// fixtures returns one canonical instance per wire type (pointer values
// so custom marshalers with pointer receivers are exercised).
func fixtures() map[string]any {
	tiny := task.NewSet(task.New("x", "1", "4", "4", 2))
	return map[string]any{
		"task":    fixtureSet().Tasks[0],
		"taskset": fixtureSet(),
		"analyze_request_single": AnalyzeRequest{
			Columns: 10,
			Tests:   []string{"DP", "GN1", "GN2"},
			Taskset: fixtureSet(),
			Detail:  true,
		},
		"analyze_request_explain": AnalyzeRequest{
			Columns: 10,
			Tests:   []string{"any-nf"},
			Taskset: fixtureSet(),
			Explain: true,
		},
		"analyze_request_batch": AnalyzeRequest{
			Columns:  10,
			Tests:    []string{"GN2"},
			Tasksets: []*TaskSet{fixtureSet(), tiny},
		},
		"analyze_response_single": AnalyzeResponse{
			Columns: 10,
			Result: &AnalyzeResult{
				Schedulable: true,
				Verdicts: []Verdict{
					{
						Test:        "DP",
						Schedulable: false,
						Reason:      "task 0: bound violated",
						FailingTask: intp(0),
						Checks: []Check{
							{TaskIndex: 0, LHS: "63/10", RHS: "409/70", Satisfied: false},
							{TaskIndex: 1, LHS: "2", RHS: "409/70", Satisfied: true},
						},
					},
					{
						Test:        "GN2",
						Schedulable: true,
						Checks: []Check{
							{TaskIndex: 0, LHS: "21/50", RHS: "1/2", Satisfied: true, Lambda: "21/50", Condition: 1},
						},
					},
				},
			},
		},
		"analyze_response_batch": AnalyzeResponse{
			Columns: 10,
			Results: []AnalyzeResult{
				{Schedulable: true, Verdicts: []Verdict{{Test: "GN2", Schedulable: true}}},
				{Schedulable: false, Verdicts: []Verdict{{Test: "GN2", Schedulable: false, Reason: "no λ works", FailingTask: intp(1)}}},
			},
		},
		"analyze_response_explain": AnalyzeResponse{
			Columns: 10,
			Result: &AnalyzeResult{
				Schedulable: true,
				Verdicts: []Verdict{
					{
						Test:        "any(DP|GN1|GN2)",
						Schedulable: true,
						AcceptedBy:  "GN2",
						Checks: []Check{
							{TaskIndex: 0, LHS: "247/50", RHS: "263/50", Satisfied: true, Lambda: "21/50", Condition: 2},
							{TaskIndex: 1, LHS: "247/50", RHS: "263/50", Satisfied: true, Lambda: "21/50", Condition: 2},
						},
						SubVerdicts: []Verdict{
							{
								Test:        "DP",
								Schedulable: false,
								Reason:      "US(Γ)=247/50 exceeds bound 34/7 at task 1",
								FailingTask: intp(1),
								Checks: []Check{
									{TaskIndex: 0, LHS: "247/50", RHS: "263/50", Satisfied: true},
									{TaskIndex: 1, LHS: "247/50", RHS: "34/7", Satisfied: false},
								},
							},
							{
								Test:        "GN1",
								Schedulable: false,
								Reason:      "interference bound 5 not below slack bound 20/7 for task 1 (t2)",
								FailingTask: intp(1),
								Checks: []Check{
									{TaskIndex: 0, LHS: "2", RHS: "58/25", Satisfied: true},
									{TaskIndex: 1, LHS: "5", RHS: "20/7", Satisfied: false},
								},
							},
							{
								Test:        "GN2",
								Schedulable: true,
								Checks: []Check{
									{TaskIndex: 0, LHS: "247/50", RHS: "263/50", Satisfied: true, Lambda: "21/50", Condition: 2},
									{TaskIndex: 1, LHS: "247/50", RHS: "263/50", Satisfied: true, Lambda: "21/50", Condition: 2},
								},
							},
						},
					},
				},
			},
		},
		"stream_request": StreamRequest{
			Columns: 10,
			Tests:   []string{"GN2"},
			Taskset: fixtureSet(),
			Explain: true,
		},
		"stream_result_ok": StreamResult{
			Index:  3,
			Result: &AnalyzeResult{Schedulable: true, Verdicts: []Verdict{{Test: "GN2", Schedulable: true}}},
		},
		"stream_result_error": StreamResult{
			Index: 4,
			Error: Errorf(CodeUnknownTest, `unknown test "XX"`).WithDetail("test", "XX"),
		},
		"simulate_request": SimulateRequest{
			Columns:    10,
			Scheduler:  "nf",
			Taskset:    fixtureSet(),
			Horizon:    "70",
			HorizonCap: "200",
		},
		"simulate_response_missed": SimulateResponse{
			Policy:        "EDF-NF",
			Missed:        true,
			Misses:        1,
			FirstMissTime: "12.6",
			FirstMissTask: intp(1),
			FirstMissJob:  intp(2),
			Horizon:       "70",
			End:           "12.6",
			Events:        41,
			Released:      24,
			Completed:     19,
			Preemptions:   3,
		},
		"simulate_response_clean": SimulateResponse{
			Policy:      "EDF-NF",
			Horizon:     "35",
			End:         "35",
			Events:      40,
			Released:    12,
			Completed:   12,
			Preemptions: 2,
		},
		"tests_response": TestsResponse{
			Tests: []string{"DP", "DP-real", "GN1", "GN1-Dk", "GN2", "GN2x", "MP-BAK2", "MP-BCL", "MP-GFB", "any-fkf", "any-nf", "partition"},
			Details: []TestInfo{
				{Name: "DP", Description: "Theorem 1: corrected integer-area Danne–Platzner utilization bound", Validity: "both"},
				{Name: "DP-real", Description: "Theorem 1 with the original real-valued-area bound A(H)−Amax", Validity: "both"},
				{Name: "GN1", Description: "Theorem 2: BCL-style interference test exploiting per-task area slack", Validity: "nf"},
				{Name: "GN1-Dk", Description: "Theorem 2 with BCL window normalisation (βi = Wi/Dk)", Validity: "nf"},
				{Name: "GN2", Description: "Theorem 3: BAK2-style busy-interval test with λ-parameterised workload bound", Validity: "both"},
				{Name: "GN2x", Description: "Theorem 3 with the extended λ candidate search (accepts a superset of GN2)", Validity: "both"},
				{Name: "MP-BAK2", Description: "Baker's λ-parameterised busy-interval test for global EDF on m = A(H) processors (unit-area sets only)", Validity: "both"},
				{Name: "MP-BCL", Description: "Bertogna–Cirinei–Lipari interference test for global EDF on m = A(H) processors (unit-area sets only)", Validity: "both"},
				{Name: "MP-GFB", Description: "Goossens–Funk–Baruah utilization bound for global EDF on m = A(H) processors (unit-area sets only)", Validity: "both"},
				{Name: "any-fkf", Description: "any-of composite of the tests valid under EDF-FkF (DP, GN2)", Validity: "fkf"},
				{Name: "any-nf", Description: "any-of composite of all tests valid under EDF-NF (DP, GN1, GN2)", Validity: "nf"},
				{Name: "partition", Description: "first-fit-decreasing static partitioning with per-partition uniprocessor EDF (certifies partitioned EDF, not global)", Validity: "partitioned"},
			},
		},
		"controller_request": ControllerRequest{Columns: 10, Tests: []string{"DP", "GN1", "GN2"}},
		"controller_info":    ControllerInfo{Name: "edge0", Columns: 10, Tests: []string{"DP", "GN1", "GN2"}, Resident: 2},
		"controller_list": ControllerList{
			Controllers: []ControllerInfo{
				{Name: "edge0", Columns: 10, Tests: []string{"DP"}, Resident: 1},
				{Name: "edge1", Columns: 20, Tests: []string{"any-nf"}, Resident: 0},
			},
		},
		"admit_response_accept": AdmitResponse{Admitted: true, ProvedBy: "DP"},
		"admit_response_certificate": AdmitResponse{
			Admitted: true,
			ProvedBy: "DP",
			Certificate: &Verdict{
				Test:        "DP",
				Schedulable: true,
				Checks: []Check{
					{TaskIndex: 0, LHS: "1/2", RHS: "29/4", Satisfied: true},
				},
			},
		},
		"admit_response_reject": AdmitResponse{Reason: "no configured test proves the resulting set schedulable"},
		"resident_response": ResidentResponse{
			Name:         "edge0",
			Columns:      10,
			Count:        2,
			UtilizationS: "4.0000",
			Taskset:      fixtureSet(),
		},
		"error": Errorf(CodeLimitExceeded, "1001 tasks exceeds the per-set limit of 1000").WithDetail("limit", "1000"),
		"experiment_request": ExperimentRequest{
			Experiment: "fig3b",
			Samples:    100,
			Seed:       1,
			Workers:    4,
			SimHorizon: "200",
		},
		"experiment_job_running": ExperimentJob{
			ID:         "exp-7",
			Experiment: "fig3b",
			State:      ExperimentRunning,
			Samples:    100,
			Seed:       1,
			Workers:    4,
			SimHorizon: "200",
			Progress:   &ExperimentProgress{BinsDone: 5, BinsTotal: 20, SamplesDone: 500, SamplesTotal: 2000},
		},
		"experiment_job_done": ExperimentJob{
			ID:         "exp-7",
			Experiment: "table3",
			State:      ExperimentDone,
			Samples:    500,
			Seed:       1,
			Result: &ExperimentResult{
				Experiment: "table3",
				Markdown:   "| taskset | DP | GN1 | GN2 |\n|---|---|---|---|\n| table3 | reject | reject | accept |\n",
				Notes:      []string{"sim-NF synchronous-release simulation over 35: no deadline miss"},
			},
		},
		"experiment_job_failed": ExperimentJob{
			ID:         "exp-8",
			Experiment: "fig4a",
			State:      ExperimentFailed,
			Samples:    500,
			Seed:       1,
			Error:      Errorf(CodeInternal, "experiments: simulating sim-NF: boom"),
		},
		"experiment_list": ExperimentList{
			Jobs: []ExperimentJob{
				{ID: "exp-1", Experiment: "fig3b", State: ExperimentDone, Samples: 100, Seed: 1},
				{ID: "exp-2", Experiment: "fig4a", State: ExperimentQueued, Samples: 500, Seed: 2},
			},
		},
		"experiment_event_state": ExperimentEvent{
			Type:  ExperimentEventState,
			State: ExperimentRunning,
		},
		"experiment_event_progress": ExperimentEvent{
			Type:     ExperimentEventProgress,
			Progress: &ExperimentProgress{BinsDone: 12, BinsTotal: 20, SamplesDone: 1200, SamplesTotal: 2000},
		},
		"experiment_event_result": ExperimentEvent{
			Type:  ExperimentEventResult,
			State: ExperimentDone,
			Result: &ExperimentResult{
				Experiment: "fig3b",
				Markdown:   "| system utilization US | DP |\n|---|---|\n| 5 | 1 |\n| 10 | 0.75 |\n",
				Counts:     []int{4, 4},
				Table: &Table{
					Title:  "fig3b",
					XLabel: "system utilization US",
					X:      []float64{5, 10},
					Columns: []TableColumn{
						{Name: "DP", Y: []*float64{fp(1), fp(0.75)}},
						{Name: "sim-NF", Y: []*float64{fp(1), nil}},
					},
				},
			},
		},
		"metrics_response": MetricsResponse{
			Engine: EngineStats{
				Hits: 12, Misses: 3, Evictions: 1, Analyses: 3, AnalysisNanos: 41_000_000, EvidenceUpgrades: 1, CacheLen: 2, CacheCap: 4096, Workers: 8,
				Screen: true, ScreenDecided: 310, ScreenEscalated: 14, ScreenRangePruned: 288, ScreenEvals: 43,
				Tests: map[string]TestCounters{
					"GN2":     {Hits: 9, Misses: 2, Analyses: 2, ScreenDecided: 310, ScreenEscalated: 11, ScreenRangePruned: 288, ScreenEvals: 40},
					"MP-BAK2": {Hits: 3, Misses: 1, Analyses: 1, ScreenEscalated: 3, ScreenEvals: 3},
				},
			},
			HTTP: map[string]RouteMetrics{
				"analyze": {Requests: 15, Errors: 1, TotalNanos: 52_000_000},
			},
		},
		"health_response": HealthResponse{Status: "ok"},
		// GET /readyz while draining: a 503 error document.
		"error_not_ready": Errorf(CodeNotReady, "draining for shutdown"),
		"cache_lookup_request": CacheLookupRequest{
			Columns:     10,
			Test:        "GN2",
			Fingerprint: "8e2c12f8f7a36fa9ce8c8c6de70f6a7a9f0f1f2e3d4c5b6a79887766554433ff",
		},
		"cache_lookup_response_hit": CacheLookupResponse{
			Hit: true,
			Verdict: &Verdict{
				Test:        "GN2",
				Schedulable: true,
				Checks: []Check{
					{TaskIndex: 0, LHS: "21/50", RHS: "1/2", Satisfied: true, Lambda: "21/50", Condition: 1},
				},
			},
		},
		"cache_lookup_response_miss": CacheLookupResponse{Hit: false},
		"metrics_response_cluster": MetricsResponse{
			Engine: EngineStats{Hits: 12, Misses: 3, Analyses: 3, CacheLen: 2, CacheCap: 4096, Workers: 8},
			HTTP: map[string]RouteMetrics{
				"cache.lookup": {Requests: 9, TotalNanos: 1_200_000},
			},
			Cluster: &ClusterMetrics{
				Self:            "a",
				LookupHits:      7,
				LookupMisses:    2,
				RemoteHits:      5,
				RemoteFallbacks: 1,
				Peers: map[string]PeerMetrics{
					"b": {FetchHits: 5, FetchMisses: 1, FetchNanos: 3_400_000},
					"c": {FetchErrors: 4, FetchNanos: 900_000, ConsecutiveFailures: 4, BreakerOpen: true},
				},
			},
		},
		"error_peer_unavailable": Errorf(CodePeerUnavailable, `no live fleet member could serve the request`).WithDetail("peer", "b"),
		// GET /metrics on a daemon running with -state-dir: the wal
		// section rides along (additive v1 field).
		"metrics_response_wal": MetricsResponse{
			Engine: EngineStats{Hits: 12, Misses: 3, Analyses: 3, CacheLen: 2, CacheCap: 4096, Workers: 8},
			HTTP: map[string]RouteMetrics{
				"controllers.admit": {Requests: 40, TotalNanos: 61_000_000},
			},
			WAL: &WALMetrics{
				Records:         83,
				Bytes:           11_302,
				WALBytes:        2_168,
				Fsyncs:          19,
				Snapshots:       2,
				ReplayedRecords: 41,
				ReplaySkipped:   3,
				TruncatedBytes:  17,
				ReplayNanos:     1_850_000,
			},
		},
		// A controller mutation whose WAL append failed: rolled back,
		// 503, controllers read-only until restart.
		"error_store_failed": Errorf(CodeStoreFailed, "durable store failed (controllers are read-only): write wal.log: no space left on device"),
		"trace_request": TraceRequest{
			Columns:   10,
			Scheduler: "nf",
			Taskset:   fixtureSet(),
			Horizon:   "35",
		},
		"trace_event_interval": TraceEvent{
			Type: TraceEventInterval,
			Interval: &TraceInterval{
				From: "0",
				To:   "2.1",
				Running: []TraceJob{
					{ID: 1, Task: 0, Job: 0, Area: 7, Release: "0", Deadline: "5", Remaining: "2.1"},
				},
				Waiting: []TraceJob{
					{ID: 2, Task: 1, Job: 0, Area: 7, Release: "0", Deadline: "7", Remaining: "2"},
				},
			},
		},
		"trace_event_miss": TraceEvent{
			Type: TraceEventMiss,
			Miss: &TraceMiss{At: "12.6", Task: 1, Job: 2},
		},
		"trace_event_result": TraceEvent{
			Type: TraceEventResult,
			Result: &SimulateResponse{
				Policy:      "EDF-NF",
				Horizon:     "35",
				End:         "35",
				Events:      40,
				Released:    12,
				Completed:   12,
				Preemptions: 2,
			},
		},
		"trace_event_error": TraceEvent{
			Type:  TraceEventError,
			Error: Errorf(CodeLimitExceeded, "simulation exceeded 100000 events"),
		},
		"task2d":    fixture2DSet().Tasks[0],
		"taskset2d": fixture2DSet(),
		"placement_check_request": PlacementCheckRequest{
			Width:     8,
			Height:    6,
			Heuristic: "bottom-left",
			Taskset:   fixture2DSet(),
		},
		"placement_check_response_feasible": PlacementCheckResponse{
			Width:     8,
			Height:    6,
			Heuristic: "bottom-left",
			Feasible:  true,
			Placements: []PlacementWitness{
				{TaskIndex: 0, Rect: Rect{X: 0, Y: 0, W: 3, H: 2}},
				{TaskIndex: 1, Rect: Rect{X: 3, Y: 0, W: 4, H: 3}},
			},
		},
		"placement_check_response_infeasible": PlacementCheckResponse{
			Width:       8,
			Height:      6,
			Heuristic:   "best-area",
			Reason:      "a 4x3 rectangle cannot be placed (18 cells free, largest free rectangle 10)",
			FailingTask: intp(1),
		},
		"placement_controller_request": PlacementControllerRequest{Width: 8, Height: 6, Heuristic: "best-short-side"},
		"placement_controller_info":    PlacementControllerInfo{Name: "grid0", Width: 8, Height: 6, Heuristic: "best-short-side", Resident: 2, FreeArea: 30},
		"placement_controller_list": PlacementControllerList{
			Controllers: []PlacementControllerInfo{
				{Name: "grid0", Width: 8, Height: 6, Heuristic: "bottom-left", Resident: 1, FreeArea: 42},
				{Name: "grid1", Width: 16, Height: 16, Heuristic: "best-area", Resident: 0, FreeArea: 256},
			},
		},
		"placement_admit_response_accept": PlacementAdmitResponse{
			Admitted: true,
			Rect:     &Rect{X: 0, Y: 2, W: 3, H: 2},
		},
		"placement_admit_response_reject": PlacementAdmitResponse{
			Reason: "no free region fits a 4x3 rectangle",
		},
		"placement_resident_response": PlacementResidentResponse{
			Name:          "grid0",
			Width:         8,
			Height:        6,
			Count:         2,
			FreeArea:      30,
			Fragmentation: "0.1667",
			Tasks: []PlacementResident{
				{Task: fixture2DSet().Tasks[0], Rect: Rect{X: 0, Y: 0, W: 3, H: 2}},
				{Task: fixture2DSet().Tasks[1], Rect: Rect{X: 3, Y: 0, W: 4, H: 3}},
			},
		},
		"error_unknown_heuristic": Errorf(CodeUnknownHeuristic, `unknown heuristic "worst-fit"`).WithDetail("heuristic", "worst-fit"),
	}
}

// fixture2DSet is the canonical 2-D pair used across the placement
// fixtures.
func fixture2DSet() *TaskSet2D {
	return &TaskSet2D{Tasks: []Task2D{
		{Name: "u1", C: "2.10", D: "5", T: "5", W: 3, H: 2},
		{Name: "u2", C: "2.00", D: "7", T: "7", W: 4, H: 3},
	}}
}

// marshal renders a fixture the way the server does: indented JSON plus
// a trailing newline.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(data, '\n')
}

func TestGoldenWireForms(t *testing.T) {
	for name, v := range fixtures() {
		t.Run(name, func(t *testing.T) {
			got := marshal(t, v)
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with go test ./api -run Golden -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire form drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestGoldenRoundTrip proves every frozen form decodes back into its
// type and re-encodes identically, so the golden files are readable
// contracts, not just snapshots.
func TestGoldenRoundTrip(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	for name, v := range fixtures() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".golden.json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			typ := reflect.TypeOf(v)
			var target reflect.Value
			if typ.Kind() == reflect.Pointer {
				target = reflect.New(typ.Elem())
			} else {
				target = reflect.New(typ)
			}
			if err := json.Unmarshal(want, target.Interface()); err != nil {
				t.Fatalf("decoding golden: %v", err)
			}
			var again any = target.Interface()
			if typ.Kind() != reflect.Pointer {
				again = target.Elem().Interface()
			}
			if got := marshal(t, again); !bytes.Equal(got, want) {
				t.Errorf("round trip drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestErrorInterface pins the error-string and detail-chaining
// behaviour the client relies on.
func TestErrorInterface(t *testing.T) {
	e := Errorf(CodeUnknownTest, "unknown test %q", "XX")
	if got := e.Error(); got != `unknown_test: unknown test "XX"` {
		t.Errorf("Error() = %q", got)
	}
	e.WithDetail("test", "XX").WithDetail("hint", "see /v1/tests")
	if e.Detail["test"] != "XX" || e.Detail["hint"] != "see /v1/tests" {
		t.Errorf("detail = %v", e.Detail)
	}
	var uncoded Error
	uncoded.Message = "plain"
	if uncoded.Error() != "plain" {
		t.Errorf("uncoded Error() = %q", uncoded.Error())
	}
}
