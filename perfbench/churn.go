package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"time"

	"fpgasched/api"
	"fpgasched/internal/admission"
	"fpgasched/internal/core"
	"fpgasched/internal/durable"
	"fpgasched/internal/server"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

const (
	// churnResidents is the resident count set-up fills each controller
	// to and every operation keeps it at.
	churnResidents = 30
	// maxFillDraws bounds set-up's draws, in case a seed's tasks are
	// rejected too often to reach churnResidents.
	maxFillDraws = 2000
	// check keeps the shadow's resident set after every churnSetEvery-th
	// operation for the traced run's replays.
	churnSetEvery = 16
)

// controllerTests are the tests of a controller created with no tests
// list, in the order the server tries them.
var controllerTests = []string{"DP", "GN1", "GN2"}

// admitRecord is what check compares for one admit: the decision and a
// digest of the admit response's JSON, certificate included.
type admitRecord struct {
	digest   uint64
	admitted bool
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// admitter is an admission controller as a churn stream drives it: the
// served controller through the SDK, or the in-process shadow.
type admitter interface {
	admit(ctx context.Context, tk task.Task) (admitRecord, error)
	release(ctx context.Context, name string) error
}

// churnStream is one client's admit/release sequence. Tasks come from
// the seed; which resident an operation releases depends on the
// decisions, which are deterministic, so the served controller and its
// shadow see the same sequence.
type churnStream struct {
	r        *rand.Rand
	c        int
	drawn    int
	admits   int      // admitted operations; even ones release the newcomer, odd ones an older resident
	resident []string // the controller's residents, oldest first
}

func newChurnStream(seed uint64, c int) *churnStream {
	return &churnStream{r: workload.Rand(streamSeed(seed, streamChurn, uint64(c))), c: c}
}

// fillProfile is the light mode of the Heterogeneous profile. Its heavy
// tasks (one draw in four) fill a 100-column device after a handful of
// admissions, long before churnResidents, so set-up admits light tasks
// only; operations draw from the full profile, and most heavy newcomers
// are rejected.
func fillProfile() workload.Profile {
	p := workload.Heterogeneous(1)
	p.HeavyFraction = 0
	return p
}

// draw returns the next fresh task from prof and the draw that picks an
// older resident to release.
func (s *churnStream) draw(prof workload.Profile) (task.Task, uint64) {
	tk := prof.Generate(s.r).Tasks[0]
	tk.Name = fmt.Sprintf("c%d-%d", s.c, s.drawn)
	s.drawn++
	return tk, s.r.Uint64()
}

// fill admits fresh tasks until the controller holds churnResidents.
func (s *churnStream) fill(ctx context.Context, a admitter, recs *[]admitRecord) error {
	for len(s.resident) < churnResidents {
		if s.drawn >= maxFillDraws {
			return fmt.Errorf("controller %d holds %d residents after %d draws", s.c, len(s.resident), s.drawn)
		}
		tk, _ := s.draw(fillProfile())
		rec, err := a.admit(ctx, tk)
		if err != nil {
			return err
		}
		*recs = append(*recs, rec)
		if rec.admitted {
			s.resident = append(s.resident, tk.Name)
		}
	}
	return nil
}

// op admits one fresh task. An admitted task is followed by one release,
// alternating between the newcomer (LIFO, which keeps the incremental
// state warm) and an older resident (non-LIFO, the cold path), so the
// resident count stays at churnResidents.
func (s *churnStream) op(ctx context.Context, a admitter) (admitRecord, error) {
	tk, pick := s.draw(workload.Heterogeneous(1))
	rec, err := a.admit(ctx, tk)
	if err != nil || !rec.admitted {
		return rec, err
	}
	victim := len(s.resident)
	if s.admits%2 == 1 {
		victim = int(pick % uint64(len(s.resident)))
	}
	s.admits++
	s.resident = append(s.resident, tk.Name)
	name := s.resident[victim]
	s.resident = slices.Delete(s.resident, victim, victim+1)
	return rec, a.release(ctx, name)
}

// servedAdmitter drives client c's controller through the SDK.
type servedAdmitter struct {
	d    *daemon
	c    int
	ctrl string
	req  uint64        // the current operation's id
	lat  time.Duration // client-observed latency of the current operation's calls
}

func (a *servedAdmitter) admit(ctx context.Context, tk task.Task) (admitRecord, error) {
	var resp *api.AdmitResponse
	lat, err := a.d.call(ctx, a.c, a.req, "client.admit", func(ctx context.Context) (err error) {
		resp, err = a.d.clients[a.c].Admit(ctx, a.ctrl, tk)
		return err
	})
	a.lat += lat
	if err != nil {
		return admitRecord{}, err
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return admitRecord{}, err
	}
	return admitRecord{digest: digest(b), admitted: resp.Admitted}, nil
}

func (a *servedAdmitter) release(ctx context.Context, name string) error {
	lat, err := a.d.call(ctx, a.c, a.req, "client.release", func(ctx context.Context) error {
		return a.d.clients[a.c].Release(ctx, a.ctrl, name)
	})
	a.lat += lat
	return err
}

// admissionStats collects the admission and api layer timings of the
// shadow controllers.
type admissionStats struct {
	request, release, encode []float64 // µs per call
	requests, admitted       int
	hits, fullRuns           uint64
	calls                    map[callKey]time.Duration // per served call, for the server's self time
}

type callKey struct {
	req  uint64
	call string
}

func newAdmissionStats() *admissionStats {
	return &admissionStats{calls: make(map[callKey]time.Duration)}
}

func (s *admissionStats) addController(st admission.Stats) {
	s.hits += st.IncrementalHits
	s.fullRuns += st.FullRuns
}

func (s *admissionStats) merge(o *admissionStats) {
	s.request = append(s.request, o.request...)
	s.release = append(s.release, o.release...)
	s.encode = append(s.encode, o.encode...)
	s.requests += o.requests
	s.admitted += o.admitted
	s.hits += o.hits
	s.fullRuns += o.fullRuns
	for k, v := range o.calls {
		s.calls[k] = v
	}
}

// shadow is an in-process admission.Controller with a served
// controller's columns and tests. Fed the same sequence, its decisions
// and certificates must equal the served ones byte for byte. With a store
// it also logs its mutations, as the server would.
type shadow struct {
	ctrl  *admission.Controller
	name  string
	store server.Store
	stats *admissionStats
	req   uint64 // the current operation's id
}

func newShadow(name string, store server.Store, stats *admissionStats) (*shadow, error) {
	tests, err := core.TestsByName(controllerTests)
	if err != nil {
		return nil, err
	}
	ctrl, err := admission.NewController(columns, tests...)
	if err != nil {
		return nil, err
	}
	return &shadow{ctrl: ctrl, name: name, store: store, stats: stats}, nil
}

func (s *shadow) admit(ctx context.Context, tk task.Task) (admitRecord, error) {
	start := time.Now()
	d := s.ctrl.Request(ctx, tk)
	took := time.Since(start)
	if d.Err != nil {
		return admitRecord{}, d.Err
	}
	start = time.Now()
	b, err := json.Marshal(api.AdmitResponse{Admitted: d.Admitted, ProvedBy: d.ProvedBy, Reason: d.Reason, Certificate: d.Certificate})
	enc := time.Since(start)
	if err != nil {
		return admitRecord{}, err
	}
	s.stats.request = append(s.stats.request, us(took))
	s.stats.encode = append(s.stats.encode, us(enc))
	s.stats.calls[callKey{s.req, "client.admit"}] = took
	s.stats.requests++
	if d.Admitted {
		s.stats.admitted++
		if s.store != nil {
			if err := s.store.Append(durable.Record{Op: durable.OpAdmit, Controller: s.name, Task: &tk}); err != nil {
				return admitRecord{}, err
			}
		}
	}
	return admitRecord{digest: digest(b), admitted: d.Admitted}, nil
}

func (s *shadow) release(_ context.Context, name string) error {
	start := time.Now()
	ok := s.ctrl.Release(name)
	took := time.Since(start)
	if !ok {
		return fmt.Errorf("shadow %s: no resident %q", s.name, name)
	}
	s.stats.release = append(s.stats.release, us(took))
	s.stats.calls[callKey{s.req, "client.release"}] = took
	if s.store != nil {
		return s.store.Append(durable.Record{Op: durable.OpRelease, Controller: s.name, TaskName: name})
	}
	return nil
}

// ---- admit-churn ----

// churnBench gives each client one controller (default tests, 100
// columns) behind the WAL, filled to churnResidents; an operation is one
// admit of a fresh task plus, when admitted, one release.
type churnBench struct {
	d         *daemon
	seed      uint64
	streams   [clients]*churnStream
	admitters [clients]*servedAdmitter
	recs      [clients][]admitRecord
	adm       *admissionStats      // the shadows', after check
	sets      [clients][]*task.Set // shadow resident sets kept by check
}

func newChurnBench(seed uint64, d *daemon, opsCap int) *churnBench {
	b := &churnBench{d: d, seed: seed}
	for c := range b.streams {
		b.streams[c] = newChurnStream(seed, c)
		b.admitters[c] = &servedAdmitter{d: d, c: c, ctrl: ctrlName(c)}
		b.recs[c] = make([]admitRecord, 0, opsCap+maxFillDraws)
	}
	return b
}

func (b *churnBench) setup(ctx context.Context) error {
	return forClients(func(c int) error {
		if _, err := b.d.clients[c].CreateController(ctx, ctrlName(c), api.ControllerRequest{Columns: columns}); err != nil {
			return err
		}
		return b.streams[c].fill(ctx, b.admitters[c], &b.recs[c])
	})
}

func (b *churnBench) op(ctx context.Context, c int) (time.Duration, error) {
	a, s := b.admitters[c], b.streams[c]
	a.req, a.lat = opID(c, s.drawn), 0
	rec, err := s.op(ctx, a)
	b.recs[c] = append(b.recs[c], rec)
	return a.lat, err
}

// check replays every client's sequence, fill included, on a shadow
// controller and compares each decision and response digest. The shadows'
// incremental-hit and full-run counts must also equal the served
// /metrics admission section.
func (b *churnBench) check(ctx context.Context) (int, error) {
	served, err := b.d.clients[0].Metrics(ctx)
	if err != nil {
		return 0, err
	}
	var bad [clients]int
	var stats [clients]*admissionStats
	err = forClients(func(c int) error {
		stats[c] = newAdmissionStats()
		sh, err := newShadow(ctrlName(c), nil, stats[c])
		if err != nil {
			return err
		}
		s := newChurnStream(b.seed, c)
		want := make([]admitRecord, 0, len(b.recs[c]))
		if err := s.fill(ctx, sh, &want); err != nil {
			return err
		}
		for len(want) < len(b.recs[c]) {
			sh.req = opID(c, s.drawn)
			rec, err := s.op(ctx, sh)
			if err != nil {
				return err
			}
			want = append(want, rec)
			if len(want)%churnSetEvery == 0 && len(b.sets[c]) < layerSetCap/clients {
				b.sets[c] = append(b.sets[c], sh.ctrl.Resident())
			}
		}
		for i, got := range b.recs[c] {
			if got != want[i] {
				bad[c]++
			}
		}
		stats[c].addController(sh.ctrl.Stats())
		return nil
	})
	if err != nil {
		return 0, err
	}
	b.adm = newAdmissionStats()
	for _, st := range stats {
		b.adm.merge(st)
	}
	n := bad[0] + bad[1]
	if a := served.Admission; a == nil || a.IncrementalHits != b.adm.hits || a.FullRuns != b.adm.fullRuns {
		n++
	}
	return n, nil
}

func (b *churnBench) layerSets() []*task.Set { return slices.Concat(b.sets[:]...) }

func (b *churnBench) analysis(req uint64, call string) (time.Duration, bool) {
	d, ok := b.adm.calls[callKey{req, call}]
	return d, ok
}

func (b *churnBench) admission() *admissionStats { return b.adm }
