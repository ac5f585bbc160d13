package eventlog

import (
	"slices"
	"sync"
	"testing"
)

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestLog walks a log through every append and checks the contract at
// each length: a reader arriving at any index replays the rest in
// order, the terminal flag is set exactly when the slice ends with the
// terminal event, and next closes on the following Append and not
// before. Then one appender feeds concurrent followers, each of which
// must see exactly the appended sequence.
func TestLog(t *testing.T) {
	const n = 6
	var l Log[int]
	evs, terminal, next := l.Since(0)
	if len(evs) != 0 || terminal {
		t.Fatalf("empty log: Since(0) = %v, %v", evs, terminal)
	}
	for k := 0; k < n; k++ {
		if closed(next) {
			t.Fatalf("next closed before append %d", k)
		}
		l.Append(k, k == n-1)
		if !closed(next) {
			t.Fatalf("next still open after append %d", k)
		}
		for from := -1; from <= k+2; from++ {
			var terminalSeen bool
			evs, terminalSeen, next = l.Since(from)
			want := []int{}
			for e := max(from, 0); e <= k; e++ {
				want = append(want, e)
			}
			if !slices.Equal(evs, want) {
				t.Fatalf("after append %d: Since(%d) = %v, want %v", k, from, evs, want)
			}
			if terminalSeen != (k == n-1) {
				t.Fatalf("after append %d: Since(%d) terminal = %v", k, from, terminalSeen)
			}
			if len(evs) > 0 && cap(evs) != len(evs) {
				t.Fatalf("Since(%d) slice not capped: len %d cap %d", from, len(evs), cap(evs))
			}
		}
	}

	const followers = 8
	var live Log[int]
	got := make([][]int, followers)
	var wg sync.WaitGroup
	for f := 0; f < followers; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for from := 0; ; {
				evs, terminal, next := live.Since(from)
				got[f] = append(got[f], evs...)
				from += len(evs)
				if terminal {
					return
				}
				<-next
			}
		}()
	}
	const events = 500
	want := make([]int, events)
	for i := range want {
		want[i] = i
		live.Append(i, i == events-1)
	}
	wg.Wait()
	for f, seq := range got {
		if !slices.Equal(seq, want) {
			t.Fatalf("follower %d saw %d events, want the %d appended in order", f, len(seq), events)
		}
	}
}
