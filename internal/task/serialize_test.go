package task

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"fpgasched/internal/timeunit"
)

func TestJSONRoundTrip(t *testing.T) {
	s := table1Set()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tasks) != len(s.Tasks) {
		t.Fatalf("got %d tasks, want %d", len(back.Tasks), len(s.Tasks))
	}
	for i := range s.Tasks {
		if back.Tasks[i] != s.Tasks[i] {
			t.Errorf("task %d: got %+v, want %+v", i, back.Tasks[i], s.Tasks[i])
		}
	}
}

func TestJSONWireFormat(t *testing.T) {
	s := NewSet(New("t1", "1.26", "7", "7", 9))
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"c":"1.26"`, `"d":"7"`, `"a":9`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("wire format missing %q in:\n%s", want, data)
		}
	}
}

func TestJSONErrors(t *testing.T) {
	cases := []string{
		`{"tasks":[{"c":"x","d":"1","t":"1","a":1}]}`,
		`{"tasks":[{"c":"1","d":"","t":"1","a":1}]}`,
		`{"tasks":[{"c":"1","d":"1","t":"1e5","a":1}]}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("ReadJSON(%q) should fail", c)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := table1Set()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Tasks {
		if back.Tasks[i] != s.Tasks[i] {
			t.Errorf("task %d: got %+v, want %+v", i, back.Tasks[i], s.Tasks[i])
		}
	}
}

func TestCSVHeaderFlexibility(t *testing.T) {
	in := "a,t,d,c,name\n9,7,7,1.26,t1\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := New("t1", "1.26", "7", "7", 9)
	if s.Tasks[0] != want {
		t.Errorf("got %+v, want %+v", s.Tasks[0], want)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",                    // no header
		"c,d,t\n1,1,1\n",      // missing area column
		"c,d,t,a\nx,1,1,1\n",  // bad c
		"c,d,t,a\n1,1,1,zz\n", // bad a
		"c,d,t,a\n1,1,1\n",    // short record
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", c)
		}
	}
}

func TestSerializationRoundTripProperty(t *testing.T) {
	f := func(c, d, tt uint16, a uint8, name string) bool {
		tk := Task{
			Name: strings.Map(func(r rune) rune {
				if r == '\n' || r == '\r' || r == ',' || r == '"' {
					return '_'
				}
				return r
			}, name),
			C: timeunit.Time(int64(c) + 1),
			D: timeunit.Time(int64(d) + 1),
			T: timeunit.Time(int64(tt) + 1),
			A: int(a) + 1,
		}
		s := NewSet(tk)
		var jbuf, cbuf bytes.Buffer
		if err := s.WriteJSON(&jbuf); err != nil {
			return false
		}
		if err := s.WriteCSV(&cbuf); err != nil {
			return false
		}
		fromJSON, err := ReadJSON(&jbuf)
		if err != nil || fromJSON.Tasks[0] != tk {
			return false
		}
		fromCSV, err := ReadCSV(&cbuf)
		if err != nil || fromCSV.Tasks[0] != tk {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJSONRejectsUnknownFields(t *testing.T) {
	var tk Task
	if err := tk.UnmarshalJSON([]byte(`{"c":"1","d":"5","t":"5","area":7}`)); err == nil {
		t.Error("unknown task field must be rejected (typoed 'area' would silently yield A=0)")
	}
	var s Set
	if err := s.UnmarshalJSON([]byte(`{"tasksX":[]}`)); err == nil {
		t.Error("unknown set field must be rejected")
	}
}

func BenchmarkSetUnmarshalJSON(b *testing.B) {
	s := &Set{}
	for i := 0; i < 60; i++ {
		s.Tasks = append(s.Tasks, New("t", "1.26", "7", "7", 1+i%9))
	}
	data, err := json.Marshal(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out Set
		if err := out.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
