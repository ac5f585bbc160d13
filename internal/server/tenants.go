package server

// The tenant registries: one generic registry serves both tenant
// families (1-D admission controllers and 2-D placement controllers),
// and every mutation of either family follows the write-ahead rule —
// decide, log, apply. Nothing changes in memory until its record is in
// the WAL, so a failed append leaves nothing to undo (see durable.go).

import (
	"cmp"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"fpgasched/api"
)

// tenantBase is the part of a tenant the registry owns: the tenant
// lock, which serialises the tenant's mutations with their WAL appends
// (so the log order per tenant is the apply order), and gone, set
// under that lock by a delete or a failed create. A mutation that took
// the lock on a tenant that is not gone knows the tenant is still
// registered and its create record is durable.
type tenantBase struct {
	mu   sync.Mutex
	gone bool
}

func (b *tenantBase) base() *tenantBase { return b }

// tenantRef is satisfied by the tenant pointer types, which embed
// tenantBase.
type tenantRef interface{ base() *tenantBase }

// tenants is one tenant family's registry: name → tenant under an
// RWMutex, capped at max entries (max ≤ 0 disables the cap). noun
// names the family in error texts.
type tenants[T tenantRef] struct {
	noun string
	max  int
	mu   sync.RWMutex
	m    map[string]T
}

func newTenants[T tenantRef](noun string, max int) *tenants[T] {
	return &tenants[T]{noun: noun, max: max, m: make(map[string]T)}
}

// named pairs a tenant with its registered name.
type named[T any] struct {
	name string
	t    T
}

func (r *tenants[T]) notFound(w http.ResponseWriter, name string) {
	writeError(w, api.Errorf(api.CodeNotFound, "no %s %q", r.noun, name))
}

// get fetches a tenant or writes a 404.
func (r *tenants[T]) get(w http.ResponseWriter, name string) (T, bool) {
	r.mu.RLock()
	t, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		r.notFound(w, name)
	}
	return t, ok
}

// lock fetches a tenant and takes its tenant lock, or writes a 404 —
// also when a delete or a failed create marked the tenant gone while
// this request waited for the lock. On success the caller holds the
// lock and must release it.
func (r *tenants[T]) lock(w http.ResponseWriter, name string) (T, bool) {
	t, ok := r.get(w, name)
	if !ok {
		return t, false
	}
	b := t.base()
	b.mu.Lock()
	if b.gone {
		b.mu.Unlock()
		r.notFound(w, name)
		var zero T
		return zero, false
	}
	return t, true
}

// snapshot lists the registered tenants sorted by name. Callers query
// the tenants after the registry lock is released: a tenant query can
// wait on a long admission analysis, and holding the registry lock
// across it would queue every lookup behind a pending create or delete.
func (r *tenants[T]) snapshot() []named[T] {
	r.mu.RLock()
	out := make([]named[T], 0, len(r.m))
	for name, t := range r.m {
		out = append(out, named[T]{name, t})
	}
	r.mu.RUnlock()
	slices.SortFunc(out, func(a, b named[T]) int { return cmp.Compare(a.name, b.name) })
	return out
}

// put registers t without logging (recovery rebuilds the registries
// from the log itself).
func (r *tenants[T]) put(name string, t T) {
	r.mu.Lock()
	r.m[name] = t
	r.mu.Unlock()
}

// create registers t under name, or writes a 409 when the name is taken
// or the registry is full, then logs the create. t is published with
// its tenant lock held, so no mutation of t can log before the create
// record does. If log fails, t is marked gone and unpublished — the
// write path's one undo, sound because nothing could change t in
// between — and create reports false (log has answered the request).
func (r *tenants[T]) create(w http.ResponseWriter, name string, t T, log func() error) bool {
	b := t.base()
	b.mu.Lock()
	defer b.mu.Unlock()
	r.mu.Lock()
	if _, exists := r.m[name]; exists {
		r.mu.Unlock()
		writeError(w, api.Errorf(api.CodeConflict, "%s %q already exists (delete it first to change its configuration)", r.noun, name))
		return false
	}
	if r.max > 0 && len(r.m) >= r.max {
		r.mu.Unlock()
		writeErrorStatus(w, http.StatusConflict,
			api.Errorf(api.CodeLimitExceeded, "%s limit of %d reached", r.noun, r.max).
				WithDetail("limit", strconv.Itoa(r.max)))
		return false
	}
	r.m[name] = t
	r.mu.Unlock()
	if log() != nil {
		b.gone = true
		r.mu.Lock()
		delete(r.m, name)
		r.mu.Unlock()
		return false
	}
	return true
}

// delete logs the removal of name and only then unpublishes it, all
// under the tenant lock. A failed log changes nothing (log has answered
// the request). Until the record is durable the name stays taken, so a
// racing create answers 409 instead of logging a create ahead of the
// delete that recovery would then apply after it.
func (r *tenants[T]) delete(w http.ResponseWriter, name string, log func() error) bool {
	t, ok := r.lock(w, name)
	if !ok {
		return false
	}
	b := t.base()
	defer b.mu.Unlock()
	if log() != nil {
		return false
	}
	b.gone = true
	r.mu.Lock()
	delete(r.m, name)
	r.mu.Unlock()
	return true
}
