// Package eventlog is the replay-then-follow event log behind
// fpgaschedd's streamed responses (experiment job events and simulation
// traces). One writer appends events; a reader that attaches at any
// point replays the history from the first event and then follows new
// appends, so a stream is complete no matter when its client connects.
package eventlog

import "sync"

// Log is an append-only event log. The zero value is an empty log ready
// for use; a Log must not be copied after first use. The writer appends
// nothing after the event it marks terminal.
type Log[T any] struct {
	mu       sync.Mutex
	events   []T
	terminal bool
	next     chan struct{} // closed and replaced on every append
}

// Append adds e and wakes every follower; terminal marks e as the last
// event of the log.
func (l *Log[T]) Append(e T, terminal bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
	l.terminal = l.terminal || terminal
	if l.next != nil {
		close(l.next)
		l.next = nil
	}
}

// Since returns the events from index from on, whether the log is
// complete — read with the slice, so true means the slice runs through
// the terminal event — and a channel closed at the next Append. The
// slice is capped at its length and shares the log's append-only
// storage: read it, never write it. Followers loop: emit the slice,
// stop once complete, otherwise wait on the channel.
func (l *Log[T]) Since(from int) ([]T, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.events)
	from = max(0, min(from, n))
	if l.next == nil {
		l.next = make(chan struct{})
	}
	return l.events[from:n:n], l.terminal, l.next
}
