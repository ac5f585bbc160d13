package task

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// Fingerprint is a canonical digest of a taskset's analysis-relevant
// content. Two sets have equal fingerprints iff their multisets of
// (C, D, T, A) tuples are equal — task order and task names do not
// contribute, because no schedulability test in internal/core depends on
// either (order-independence is property-tested in core). This makes the
// fingerprint a sound memoization key for analysis verdicts: a permuted
// or renamed copy of a taskset hits the same cache entry.
//
// The digest is SHA-256 over the exact tick values, so there is no
// floating-point involvement anywhere: tasksets that differ by less than
// one tick in any parameter were already equal to the analyses.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// ParseFingerprint parses the hex form produced by String. It is the
// wire decoding used by the peer cache-lookup endpoint.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("fingerprint: %w", err)
	}
	if len(b) != len(f) {
		return f, fmt.Errorf("fingerprint: %d hex bytes, want %d", len(b), len(f))
	}
	copy(f[:], b)
	return f, nil
}

// ParamLess is the canonical name-free ordering of tasks: lexicographic
// on the exact (C, D, T, A) tick tuples. It is the single comparator
// behind Fingerprint and CanonicalPerm (and so CanonicalFromPerm), so
// the cache-key ordering and every canonicalisation of a set provably
// agree.
func ParamLess(a, b Task) bool {
	switch {
	case a.C != b.C:
		return a.C < b.C
	case a.D != b.D:
		return a.D < b.D
	case a.T != b.T:
		return a.T < b.T
	default:
		return a.A < b.A
	}
}

// CanonicalPerm returns the canonical ordering as a permutation:
// perm[c] is the original index of the task at canonical position c.
// The ordering is ParamLess, stable, names ignored — exactly the order
// Fingerprint hashes — so consumers that cache by fingerprint can remap
// position-dependent data between any two permutations of equal sets.
func (s *Set) CanonicalPerm() []int {
	perm := make([]int, len(s.Tasks))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return ParamLess(s.Tasks[perm[a]], s.Tasks[perm[b]])
	})
	return perm
}

// CanonicalFromPerm returns a new set holding the receiver's tasks in
// canonical order: task c of the result is s.Tasks[perm[c]]. perm must
// be the receiver's CanonicalPerm. Analysing the canonical copy makes
// order-dependent choices (the first failing task, placement order
// among parameter-equal tasks) the same for every permutation of the
// set; perm maps the results back to the caller's indices.
func (s *Set) CanonicalFromPerm(perm []int) *Set {
	canon := &Set{Tasks: make([]Task, len(perm))}
	for c, orig := range perm {
		canon.Tasks[c] = s.Tasks[orig]
	}
	return canon
}

// Fingerprint returns the canonical digest of the set. See the
// Fingerprint type for the equality contract.
func (s *Set) Fingerprint() Fingerprint {
	return s.FingerprintFromPerm(s.CanonicalPerm())
}

// FingerprintFromPerm computes the digest using an already-computed
// CanonicalPerm result, so callers that need both (e.g. the engine's
// cache key plus verdict remapping) sort only once. perm must be the
// receiver's CanonicalPerm.
func (s *Set) FingerprintFromPerm(perm []int) Fingerprint {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(len(perm)))
	for _, i := range perm {
		t := s.Tasks[i]
		writeInt(int64(t.C))
		writeInt(int64(t.D))
		writeInt(int64(t.T))
		writeInt(int64(t.A))
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}
