package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fpgasched/internal/core"
	"fpgasched/internal/fpga"
	"fpgasched/internal/partition"
	"fpgasched/internal/report"
	"fpgasched/internal/sched"
	"fpgasched/internal/sim"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
	"fpgasched/internal/twod"
	"fpgasched/internal/workload"
)

// simNF and simFkF are the standard simulation series.
var simNF = PolicyFactory{
	Name: "sim-NF",
	New:  func(*task.Set, int) (sim.Policy, error) { return sched.NextFit{}, nil },
}

var simFkF = PolicyFactory{
	Name: "sim-FkF",
	New:  func(*task.Set, int) (sim.Policy, error) { return sched.FirstKFit{}, nil },
}

// paperSims are the simulation series of the paper's figures.
var paperSims = []PolicyFactory{simNF, simFkF}

// paperTests are the three tests the paper compares, in its order.
func paperTests() []core.Test {
	return []core.Test{core.DPTest{}, core.GN1Test{}, core.GN2Test{}}
}

// Registry returns all experiment definitions, sorted by ID.
func Registry() []Definition {
	defs := []Definition{
		{ID: "table1", Title: "Taskset accepted by DP, rejected by GN1 and GN2 (paper Table 1)", Run: tableExperiment("table1", workload.Table1)},
		{ID: "table2", Title: "Taskset accepted by GN1, rejected by DP and GN2 (paper Table 2)", Run: tableExperiment("table2", workload.Table2)},
		{ID: "table3", Title: "Taskset accepted by GN2, rejected by DP and GN1 (paper Table 3)", Run: tableExperiment("table3", workload.Table3)},
		{ID: "fig3a", Title: "Acceptance ratio vs US: 4 tasks, unconstrained (paper Fig. 3a)", Run: sweepExperiment("fig3a", workload.Unconstrained(4), paperTests(), paperSims, false)},
		{ID: "fig3b", Title: "Acceptance ratio vs US: 10 tasks, unconstrained (paper Fig. 3b)", Run: sweepExperiment("fig3b", workload.Unconstrained(10), paperTests(), paperSims, false)},
		{ID: "fig4a", Title: "Acceptance ratio vs US: 10 spatially heavy, temporally light tasks (paper Fig. 4a)", Run: sweepExperiment("fig4a", workload.SpatiallyHeavyTemporallyLight(10), paperTests(), paperSims, true)},
		{ID: "fig4b", Title: "Acceptance ratio vs US: 10 spatially light, temporally heavy tasks (paper Fig. 4b)", Run: sweepExperiment("fig4b", workload.SpatiallyLightTemporallyHeavy(10), paperTests(), paperSims, true)},
		{ID: "ablation-alpha", Title: "Integer-area α correction: DP vs Danne/Platzner real-valued bound (Lemma 1)", Run: sweepExperiment("ablation-alpha", workload.Unconstrained(10), []core.Test{core.DPTest{}, core.DPTest{RealValuedAlpha: true}}, nil, false)},
		{ID: "ablation-gn1norm", Title: "GN1 normalisation: paper's Wi/Di vs BCL-consistent Wi/Dk (item T2-NORM)", Run: sweepExperiment("ablation-gn1norm", workload.Unconstrained(10), []core.Test{core.GN1Test{}, core.GN1Test{Variant: core.GN1VariantBCL}}, nil, false)},
		{ID: "ablation-nf", Title: "EDF-NF dominates EDF-FkF: simulated miss comparison (Danne's dominance result)", Run: ablationNFDominance},
		{ID: "ablation-overhead", Title: "Reconfiguration overhead sensitivity (relaxing Section 1 assumption 3)", Run: ablationOverhead},
		{ID: "ablation-frag", Title: "Cost of unrestricted migration: capacity model vs pinned contiguous placement (Section 7)", Run: ablationFragmentation},
		{ID: "ablation-partition", Title: "Global EDF-NF vs partitioned scheduling (Danne/Platzner RAW'06, Section 7)", Run: ablationPartition},
		{ID: "ablation-ushybrid", Title: "EDF-US[ξ] system-utilization hybrid vs plain EDF-NF on temporally heavy sets (Section 7)", Run: ablationUSHybrid},
		{ID: "ablation-2d", Title: "2-D reconfiguration: area capacity vs rectangle placement heuristics (Section 7)", Run: ablation2D},
		{ID: "ablation-reserved", Title: "Pre-configured (reserved) columns: capacity loss vs fabric splitting (Section 1 assumption 2)", Run: ablationReserved},
		{ID: "profile-bursty", Title: "Acceptance ratio vs US: 10 bursty tasks (short periods, high utilization; serving-path stress)", Run: sweepExperiment("profile-bursty", workload.Bursty(10), append(paperTests(), core.PartitionTest{}), paperSims, true)},
		{ID: "profile-hetero", Title: "Acceptance ratio vs US: 10 heterogeneous tasks (bimodal light/heavy mix)", Run: sweepExperiment("profile-hetero", workload.Heterogeneous(10), append(paperTests(), core.PartitionTest{}), paperSims, true)},
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].ID < defs[j].ID })
	return defs
}

// Lookup finds a definition by ID.
func Lookup(id string) (Definition, bool) {
	for _, d := range Registry() {
		if d.ID == id {
			return d, true
		}
	}
	return Definition{}, false
}

// tableExperiment reproduces one of the paper's verdict tables: the
// accept/reject row for all three tests, plus simulation outcomes for
// both schedulers as the ground-truth upper bound.
func tableExperiment(id string, fixture func() *task.Set) func(context.Context, RunOptions) (*Output, error) {
	return func(ctx context.Context, opts RunOptions) (*Output, error) {
		opts = opts.WithDefaults()
		s := fixture()
		m, err := RunVerdictMatrix(ctx, workload.TableDeviceColumns, []NamedSet{{Name: id, Set: s}}, paperTests(), opts.Analyze)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		b.WriteString(m.Markdown())
		b.WriteString("\nTaskset:\n\n```\n" + s.String() + "\n```\n")
		var notes []string
		for _, pf := range paperSims {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p, err := pf.New(s, workload.TableDeviceColumns)
			if err != nil {
				return nil, err
			}
			res, err := sim.Simulate(workload.TableDeviceColumns, s, p, sim.Options{HorizonCap: opts.SimHorizonCap})
			if err != nil {
				return nil, err
			}
			verdict := "no deadline miss"
			if res.Missed {
				verdict = fmt.Sprintf("missed at %v (task %d)", res.FirstMissTime, res.FirstMissTask)
			}
			notes = append(notes, fmt.Sprintf("%s synchronous-release simulation over %v: %s", pf.Name, res.Horizon, verdict))
		}
		return &Output{ID: id, Markdown: b.String(), Notes: notes}, nil
	}
}

// sweepExperiment runs one acceptance-ratio sweep of tests and
// policies over US bins on the 100-column device.
//
// Unconstrained profiles use stratified generation: rescaling C to hit
// each bin's target US produces draws that are still within the
// profile, and every bin gets a full population. Profiles that constrain
// the execution factor (Figure 4's temporally heavy/light sets, the
// bursty and heterogeneous mixes) use raw sampling instead — rescaling
// would silently destroy the very property the profile encodes — and
// bin each draw by its achieved US (bins outside the profile's natural
// US range stay empty, as in the paper's plots).
func sweepExperiment(id string, profile workload.Profile, tests []core.Test, policies []PolicyFactory, raw bool) func(context.Context, RunOptions) (*Output, error) {
	return func(ctx context.Context, opts RunOptions) (*Output, error) {
		opts = opts.WithDefaults()
		res, err := SweepConfig{
			Name:          id,
			Columns:       workload.FigureDeviceColumns,
			Profile:       profile,
			SamplesPerBin: opts.Samples,
			Tests:         tests,
			Policies:      policies,
			Seed:          opts.Seed,
			SimHorizonCap: opts.SimHorizonCap,
			Workers:       opts.Workers,
			Raw:           raw,
			OnProgress:    opts.OnProgress,
			Analyze:       opts.Analyze,
		}.Run(ctx)
		if err != nil {
			return nil, err
		}
		return &Output{ID: id, Table: res.Table, Markdown: res.Table.Markdown(), Counts: res.Counts}, nil
	}
}

// simulateNF reports whether EDF-NF meets every deadline of s on the
// 100-column device under o (HorizonCap is taken from opts).
func simulateNF(s *task.Set, opts RunOptions, o sim.Options) (bool, error) {
	o.HorizonCap = opts.SimHorizonCap
	res, err := sim.Simulate(workload.FigureDeviceColumns, s, sched.NextFit{}, o)
	if err != nil {
		return false, err
	}
	return !res.Missed, nil
}

// ablationNFDominance simulates random tasksets under both schedulers
// and tabulates the outcome pairs. Danne's dominance theorem predicts
// the "FkF meets, NF misses" cell is always zero; any nonzero count
// would falsify either the theorem or the simulator.
func ablationNFDominance(ctx context.Context, opts RunOptions) (*Output, error) {
	opts = opts.WithDefaults()
	profile := workload.Unconstrained(8)
	// Each draw lands in one outcome cell: bit 1 is "EDF-NF misses",
	// bit 0 is "EDF-FkF misses".
	_, cells, err := tally(ctx, opts.Workers, opts.OnProgress, 4, opts.Samples, 4, 0,
		func(ctx context.Context, job, i int) (int, []bool, error) {
			n := job*opts.Samples + i
			r := workload.Rand(opts.Seed ^ uint64(n+1)*0x9e3779b97f4a7c15)
			s, _ := profile.GenerateWithTargetUS(r, 20+float64(n%13)*5)
			cell := 0
			for bit, p := range []sim.Policy{sched.FirstKFit{}, sched.NextFit{}} {
				res, err := sim.Simulate(workload.FigureDeviceColumns, s, p, sim.Options{HorizonCap: opts.SimHorizonCap})
				if err != nil {
					return 0, nil, err
				}
				if res.Missed {
					cell |= 1 << bit
				}
			}
			return cell, nil, nil
		})
	if err != nil {
		return nil, err
	}
	md := fmt.Sprintf(`| outcome | tasksets |
|---|---|
| both schedulers meet all deadlines | %d |
| only EDF-NF meets (dominance advantage) | %d |
| only EDF-FkF meets (THEOREM VIOLATION if nonzero) | %d |
| both miss | %d |
`, cells[0], cells[1], cells[2], cells[3])
	notes := []string{fmt.Sprintf("%d tasksets, synchronous release, horizon cap %v", 4*opts.Samples, opts.SimHorizonCap)}
	if cells[2] > 0 {
		notes = append(notes, "WARNING: dominance violated — investigate simulator")
	}
	return &Output{ID: "ablation-nf", Markdown: md, Notes: notes}, nil
}

// ablationOverhead sweeps the reconfiguration overhead per column and
// reports simulated EDF-NF acceptance at three utilization levels,
// quantifying how much the paper's zero-overhead assumption matters.
func ablationOverhead(ctx context.Context, opts RunOptions) (*Output, error) {
	opts = opts.WithDefaults()
	overheads := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1}
	usLevels := []float64{30, 50, 70}
	profile := workload.Unconstrained(10)
	// Each (US level, overhead) pair seeds its own draws, so it is one
	// job and one bin: bin u·len(overheads)+oi.
	cells := len(usLevels) * len(overheads)
	accept, counts, err := tally(ctx, opts.Workers, opts.OnProgress, cells, opts.Samples, cells, 1,
		func(ctx context.Context, job, i int) (int, []bool, error) {
			us, oi := usLevels[job/len(overheads)], job%len(overheads)
			r := workload.Rand(opts.Seed ^ uint64(i+1)*31 ^ uint64(oi+1)*131 ^ uint64(int(us)+1)*1031)
			s, _ := profile.GenerateWithTargetUS(r, us)
			ok, err := simulateNF(s, opts, sim.Options{ReconfigPerColumn: timeunit.FromFloat(overheads[oi])})
			return job, []bool{ok}, err
		})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{Title: "ablation-overhead", XLabel: "reconfig overhead per column (time units)", X: overheads}
	for u, us := range usLevels {
		lo, hi := u*len(overheads), (u+1)*len(overheads)
		tbl.AddColumn(fmt.Sprintf("sim-NF@US=%g", us), ratios(accept[lo:hi], counts[lo:hi], 0))
	}
	return &Output{ID: "ablation-overhead", Table: tbl, Markdown: tbl.Markdown()}, nil
}

// ablationFragmentation compares the capacity model (the paper's
// unrestricted-migration assumption) against pinned contiguous placement
// under the three fit strategies, on the Figure 3(b) workload. Every
// mode simulates the same draws.
func ablationFragmentation(ctx context.Context, opts RunOptions) (*Output, error) {
	opts = opts.WithDefaults()
	bins := defaultBins(workload.FigureDeviceColumns)
	profile := workload.Unconstrained(10)
	modes := []struct {
		name      string
		placement *sim.PlacementOptions
	}{
		{"capacity (free migration)", nil},
		{"first-fit pinned", &sim.PlacementOptions{Strategy: fpga.FirstFit}},
		{"best-fit pinned", &sim.PlacementOptions{Strategy: fpga.BestFit}},
		{"worst-fit pinned", &sim.PlacementOptions{Strategy: fpga.WorstFit}},
	}
	accept, counts, err := tally(ctx, opts.Workers, opts.OnProgress, len(bins), opts.Samples, len(bins), len(modes),
		func(ctx context.Context, bi, i int) (int, []bool, error) {
			r := workload.Rand(opts.Seed ^ uint64(i+1)*17 ^ uint64(bi+1)*257)
			s, _ := profile.GenerateWithTargetUS(r, bins[bi])
			hits := make([]bool, len(modes))
			for mi, mode := range modes {
				var err error
				if hits[mi], err = simulateNF(s, opts, sim.Options{Placement: mode.placement}); err != nil {
					return 0, nil, err
				}
			}
			return bi, hits, nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{Title: "ablation-frag", XLabel: "system utilization US", X: bins}
	for mi, mode := range modes {
		tbl.AddColumn(mode.name, ratios(accept, counts, mi))
	}
	return &Output{ID: "ablation-frag", Table: tbl, Markdown: tbl.Markdown()}, nil
}

// ablationPartition compares global EDF-NF (any-of tests and simulation)
// against partitioned first-fit-decreasing allocation with exact
// per-partition EDF analysis — the alternative design the paper's
// Section 1 positions itself against.
func ablationPartition(ctx context.Context, opts RunOptions) (*Output, error) {
	opts = opts.WithDefaults()
	bins := defaultBins(workload.FigureDeviceColumns)
	profile := workload.Unconstrained(10)
	composite := core.ForNF()
	accept, counts, err := tally(ctx, opts.Workers, opts.OnProgress, len(bins), opts.Samples, len(bins), 3,
		func(ctx context.Context, bi, i int) (int, []bool, error) {
			r := workload.Rand(opts.Seed ^ uint64(i+1)*67 ^ uint64(bi+1)*521)
			s, _ := profile.GenerateWithTargetUS(r, bins[bi])
			v, err := analyzeOne(ctx, opts.Analyze, workload.FigureDeviceColumns, s, composite)
			if err != nil {
				return 0, nil, err
			}
			ok, err := simulateNF(s, opts, sim.Options{})
			return bi, []bool{v.Schedulable, partition.Schedulable(workload.FigureDeviceColumns, s), ok}, err
		})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{Title: "ablation-partition", XLabel: "system utilization US", X: bins}
	for si, name := range []string{"global any(DP|GN1|GN2)", "partitioned FFD+EDF (exact)", "global sim-NF"} {
		tbl.AddColumn(name, ratios(accept, counts, si))
	}
	return &Output{ID: "ablation-partition", Table: tbl, Markdown: tbl.Markdown()}, nil
}

// ablationUSHybrid evaluates the paper's Section 7 suggestion — an
// EDF-US style hybrid promoting system-utilization-heavy tasks — against
// plain EDF-NF by simulation on the temporally heavy workload where
// Dhall-style effects are most likely.
func ablationUSHybrid(ctx context.Context, opts RunOptions) (*Output, error) {
	opts = opts.WithDefaults()
	bins := defaultBins(workload.FigureDeviceColumns)
	profile := workload.SpatiallyLightTemporallyHeavy(10)
	policies := []PolicyFactory{
		simNF,
		{Name: "sim-US[1/4]-NF", New: func(s *task.Set, columns int) (sim.Policy, error) {
			return sched.NewUSHybrid(s, columns, 1, 4, sched.PackNF)
		}},
		{Name: "sim-US[1/2]-NF", New: func(s *task.Set, columns int) (sim.Policy, error) {
			return sched.NewUSHybrid(s, columns, 1, 2, sched.PackNF)
		}},
	}
	accept, counts, err := tally(ctx, opts.Workers, opts.OnProgress, len(bins), opts.Samples, len(bins), len(policies),
		func(ctx context.Context, job, i int) (int, []bool, error) {
			r := workload.Rand(opts.Seed ^ uint64(job*opts.Samples+i+1)*97)
			s := profile.Generate(r)
			bi := nearestBin(bins, workload.USFloat(s))
			if bi < 0 {
				return -1, nil, nil
			}
			hits := make([]bool, len(policies))
			for pi, pf := range policies {
				p, err := pf.New(s, workload.FigureDeviceColumns)
				if err != nil {
					return 0, nil, err
				}
				res, err := sim.Simulate(workload.FigureDeviceColumns, s, p, sim.Options{HorizonCap: opts.SimHorizonCap})
				if err != nil {
					return 0, nil, err
				}
				hits[pi] = !res.Missed
			}
			return bi, hits, nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{Title: "ablation-ushybrid", XLabel: "system utilization US", X: bins}
	for pi, pf := range policies {
		tbl.AddColumn(pf.Name, ratios(accept, counts, pi))
	}
	return &Output{ID: "ablation-ushybrid", Table: tbl, Markdown: tbl.Markdown(), Counts: counts}, nil
}

// ablation2D quantifies the paper's Section 7 warning about 2-D
// reconfiguration: on random 2-D workloads, compare the area-capacity
// relaxation (the direct lift of the paper's 1-D assumption) against
// true rectangle placement under three heuristics. The gap is the 2-D
// fragmentation cost that makes 1-D-style capacity bounds unsound as
// sufficient tests in 2-D.
func ablation2D(ctx context.Context, opts RunOptions) (*Output, error) {
	opts = opts.WithDefaults()
	// 10x10-cell device: total area 100 cells, comparable to the 1-D
	// figures' 100 columns.
	const devW, devH = 10, 10
	bins := defaultBins(devW * devH)
	profile := twod.Profile{
		Name: "2d-uniform", N: 10, SideMin: 1, SideMax: 6,
		PeriodMin: 5, PeriodMax: 20, UtilMin: 0, UtilMax: 1,
	}
	modes := []struct {
		name string
		opts twod.Options
	}{
		{"area capacity (1-D assumption)", twod.Options{Mode: twod.ModeCapacity}},
		{"bottom-left placement", twod.Options{Heuristic: twod.BottomLeft}},
		{"best-short-side placement", twod.Options{Heuristic: twod.BestShortSideFit}},
		{"best-area placement", twod.Options{Heuristic: twod.BestAreaFit}},
	}
	accept, counts, err := tally(ctx, opts.Workers, opts.OnProgress, len(bins), opts.Samples, len(bins), len(modes),
		func(ctx context.Context, job, i int) (int, []bool, error) {
			r := workload.Rand(opts.Seed ^ uint64(job*opts.Samples+i+1)*193)
			s := profile.Generate(r)
			bi := nearestBin(bins, s.USFloat())
			if bi < 0 {
				return -1, nil, nil
			}
			hits := make([]bool, len(modes))
			for mi, mode := range modes {
				o := mode.opts
				o.Horizon = opts.SimHorizonCap
				res, err := twod.Simulate(devW, devH, s, o)
				if err != nil {
					return 0, nil, err
				}
				hits[mi] = !res.Missed
			}
			return bi, hits, nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{Title: "ablation-2d", XLabel: "system utilization US (cells)", X: bins}
	for mi, mode := range modes {
		tbl.AddColumn(mode.name, ratios(accept, counts, mi))
	}
	return &Output{ID: "ablation-2d", Table: tbl, Markdown: tbl.Markdown(), Counts: counts}, nil
}

// ablationReserved relaxes the paper's homogeneous-fabric assumption
// (Section 1 assumption 2): a growing fraction of columns is
// pre-configured (memory blocks, soft cores) and unavailable. The
// capacity view just shrinks A(H); the placement view also splits the
// fabric, so a mid-fabric reservation can hurt more than its area — the
// difference between the two placement columns isolates that geometry
// effect. Every mode simulates the same draws.
func ablationReserved(ctx context.Context, opts RunOptions) (*Output, error) {
	opts = opts.WithDefaults()
	reservedFractions := []float64{0, 0.1, 0.2, 0.3, 0.4}
	// Narrow tasks (≤ 30 columns): wide ones would make any centre split
	// trivially fatal (a 60-column task cannot exist in a 45-column
	// half), hiding the packing effect this ablation is after.
	profile := workload.Profile{
		Name: "reserved", N: 10, AreaMin: 1, AreaMax: 30,
		PeriodMin: 5, PeriodMax: 20, UtilMin: 0, UtilMax: 1,
	}
	const targetUS = 40
	modes := []struct {
		name      string
		placement bool
		centre    bool
	}{
		{"capacity view", false, false},
		{"placement, edge reservation", true, false},
		{"placement, centre reservation", true, true},
	}
	accept, counts, err := tally(ctx, opts.Workers, opts.OnProgress, len(reservedFractions), opts.Samples, len(reservedFractions), len(modes),
		func(ctx context.Context, fi, i int) (int, []bool, error) {
			r := workload.Rand(opts.Seed ^ uint64(i+1)*29 ^ uint64(fi+1)*769)
			s, _ := profile.GenerateWithTargetUS(r, targetUS)
			cols := int(reservedFractions[fi] * workload.FigureDeviceColumns)
			hits := make([]bool, len(modes))
			for mi, m := range modes {
				var o sim.Options
				if cols > 0 {
					lo := 0
					if m.centre {
						lo = (workload.FigureDeviceColumns - cols) / 2
					}
					o.Reserved = []fpga.Region{{Lo: lo, Hi: lo + cols}}
				}
				if m.placement {
					o.Placement = &sim.PlacementOptions{Strategy: fpga.FirstFit, DefragEveryEvent: true}
				}
				// A task wider than the usable fabric fails the
				// simulation: the set is rejected.
				hits[mi], _ = simulateNF(s, opts, o)
			}
			return fi, hits, nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{Title: "ablation-reserved", XLabel: "reserved fraction of fabric", X: reservedFractions}
	for mi, m := range modes {
		tbl.AddColumn(m.name, ratios(accept, counts, mi))
	}
	return &Output{ID: "ablation-reserved", Table: tbl, Markdown: tbl.Markdown()}, nil
}
