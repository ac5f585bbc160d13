package task

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fpgasched/internal/timeunit"
)

// TestMarshalMatchesEncodingJSON pins the reflection-free encoder to
// json.Marshal of the wire form, byte for byte, including names that
// need escaping (quotes, HTML-sensitive characters, control bytes,
// non-ASCII and invalid UTF-8), empty names and negative times.
func TestMarshalMatchesEncodingJSON(t *testing.T) {
	names := []string{"", "t1", "τ2", `a"b`, `back\slash`, "<tag>&", "tab\there", "nl\n", "\x7f", "\xff\xfe", "line\u2028sep"}
	s := &Set{}
	for i, n := range names {
		s.Tasks = append(s.Tasks, Task{Name: n, C: timeunit.Time(1 + i*12345), D: timeunit.Time(-7 * i), T: 70000, A: i - 3})
	}
	for _, set := range []*Set{s, {}, {Tasks: []Task{}}} {
		got, err := set.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(set.wire())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON:\n got %s\nwant %s", got, want)
		}
	}
}

// FuzzSetUnmarshalJSON pins the Set decoder to the strict per-task
// decoder it falls back to: on every input, the same tasks or the same
// error text (with its "tasks[i]:" prefix), and an empty non-nil slice
// for "tasks": null.
func FuzzSetUnmarshalJSON(f *testing.F) {
	for _, seed := range []string{
		`{"tasks":[{"name":"t1","c":"2.10","d":"5","t":"5","a":7},{"c":"2","d":"7","t":"7","a":-0}]}`,
		` { "tasks" : [ ] } `,
		`{"tasks":null}`,
		`{}`,
		`{"tasks":[null]}`,
		`{"tasks":[{}]}`,
		`{"tasks":[{"name":"τ1","c":"1","d":"5","t":"5","a":1}]}`,
		`{"tasks":[{"name":"a\"b","c":"1","d":"5","t":"5","a":1}]}`,
		`{"tasks":[{"c":"x","d":"1","t":"1","a":1}]}`,
		`{"tasks":[{"c":"1","d":"1","t":"1","a":1},{"c":"1","d":"","t":"1","a":1}]}`,
		`{"tasks":[{"c":"1","d":"1","t":"1e5","a":1}]}`,
		`{"tasks":[{"c":"1","d":"5","t":"5","a":1},{"c":"1","d":"5","t":"5","area":7}]}`,
		`{"tasks":[{"a":1,"a":2,"c":"1","c":"2","d":"5","t":"5"}]}`,
		`{"tasks":[{"c":"1","d":"5","t":"5","a":"7"}]}`,
		`{"tasks":[{"c":"1","d":"5","t":"5","a":01}]}`,
		`{"tasks":[{"c":"1","d":"5","t":"5","a":1.0}]}`,
		`{"tasks":[{"c":"1","d":"5","t":"5","a":99999999999999999999}]}`,
		`{"tasks":[{"C":"1","d":"5","t":"5","a":1}]}`,
		`{"Tasks":[]}`,
		`{"tasks":[5]}`,
		`{"tasks":{}}`,
		`{"tasksX":[]}`,
		`{"tasks":[{"c":"1","d":"5","t":"5","a":1}]} trailing`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Set
		gotErr := got.UnmarshalJSON(data)
		wantErr := want.unmarshalPerTask(data)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: error %v, per-task decoder says %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Tasks == nil || !reflect.DeepEqual(got.Tasks, want.Tasks) {
			t.Fatalf("%q: tasks %#v, per-task decoder gives %#v", data, got.Tasks, want.Tasks)
		}
	})
}
