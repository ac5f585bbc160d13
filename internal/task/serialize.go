package task

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fpgasched/internal/timeunit"
)

// strictUnmarshal decodes JSON rejecting unknown fields, so a typoed
// field name ("area" for "a") fails loudly instead of yielding a zero
// value. encoding/json does not propagate DisallowUnknownFields into
// custom unmarshalers, so each one must opt in explicitly.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// jsonTask is the wire form of Task: durations as decimal strings so files
// stay exact and human-editable.
type jsonTask struct {
	Name string `json:"name,omitempty"`
	C    string `json:"c"`
	D    string `json:"d"`
	T    string `json:"t"`
	A    int    `json:"a"`
}

// jsonSet is the wire form of Set.
type jsonSet struct {
	Tasks []jsonTask `json:"tasks"`
}

// MarshalJSON implements json.Marshaler for Task.
func (t Task) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonTask{
		Name: t.Name,
		C:    t.C.String(),
		D:    t.D.String(),
		T:    t.T.String(),
		A:    t.A,
	})
}

// UnmarshalJSON implements json.Unmarshaler for Task.
func (t *Task) UnmarshalJSON(data []byte) error {
	var jt jsonTask
	if err := strictUnmarshal(data, &jt); err != nil {
		return err
	}
	c, err := timeunit.Parse(jt.C)
	if err != nil {
		return fmt.Errorf("task %q: field c: %w", jt.Name, err)
	}
	d, err := timeunit.Parse(jt.D)
	if err != nil {
		return fmt.Errorf("task %q: field d: %w", jt.Name, err)
	}
	tt, err := timeunit.Parse(jt.T)
	if err != nil {
		return fmt.Errorf("task %q: field t: %w", jt.Name, err)
	}
	*t = Task{Name: jt.Name, C: c, D: d, T: tt, A: jt.A}
	return nil
}

// wire returns the set's wire form.
func (s *Set) wire() jsonSet {
	out := jsonSet{Tasks: make([]jsonTask, len(s.Tasks))}
	for i, t := range s.Tasks {
		out.Tasks[i] = jsonTask{Name: t.Name, C: t.C.String(), D: t.D.String(), T: t.T.String(), A: t.A}
	}
	return out
}

// MarshalJSON implements json.Marshaler for Set. The output is the
// compact encoding of the wire form (an enclosing encoder re-formats it
// anyway; WriteJSON indents).
func (s *Set) MarshalJSON() ([]byte, error) {
	return appendWireSet(make([]byte, 0, 64*len(s.Tasks)+16), s.Tasks)
}

// UnmarshalJSON implements json.Unmarshaler for Set. The canonical
// wire shape is parsed in one reflection-free pass (parseWireSet). Any
// other input — and any input with a field that does not parse — is
// decoded strictly task by task, which is also what gives every error
// its "tasks[i]:" prefix.
func (s *Set) UnmarshalJSON(data []byte) error {
	if wire, ok := parseWireSet(data); ok {
		tasks := make([]Task, len(wire))
		if fromJSONTasks(wire, tasks) {
			s.Tasks = tasks
			return nil
		}
	}
	return s.unmarshalPerTask(data)
}

// fromJSONTasks converts decoded wire tasks into out, reporting false
// at the first field that does not parse.
func fromJSONTasks(in []jsonTask, out []Task) bool {
	for i, jt := range in {
		c, err1 := timeunit.Parse(jt.C)
		d, err2 := timeunit.Parse(jt.D)
		t, err3 := timeunit.Parse(jt.T)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		out[i] = Task{Name: jt.Name, C: c, D: d, T: t, A: jt.A}
	}
	return true
}

// unmarshalPerTask decodes the set one task at a time, each task
// strictly.
func (s *Set) unmarshalPerTask(data []byte) error {
	var js struct {
		Tasks []json.RawMessage `json:"tasks"`
	}
	if err := strictUnmarshal(data, &js); err != nil {
		return err
	}
	s.Tasks = make([]Task, len(js.Tasks))
	for i, raw := range js.Tasks {
		if err := s.Tasks[i].UnmarshalJSON(raw); err != nil {
			return fmt.Errorf("tasks[%d]: %w", i, err)
		}
	}
	return nil
}

// WriteJSON writes the set to w as indented JSON.
func (s *Set) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s.wire(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadJSON parses a Set from r.
func ReadJSON(r io.Reader) (*Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := s.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return &s, nil
}

// csvHeader is the column order for CSV (de)serialisation.
var csvHeader = []string{"name", "c", "d", "t", "a"}

// WriteCSV writes the set to w as CSV with a header row.
func (s *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, t := range s.Tasks {
		rec := []string{t.Name, t.C.String(), t.D.String(), t.T.String(), strconv.Itoa(t.A)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a Set from CSV with the header produced by WriteCSV.
func ReadCSV(r io.Reader) (*Set, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("taskset csv: reading header: %w", err)
	}
	idx := make(map[string]int, len(header))
	for i, h := range header {
		idx[strings.ToLower(strings.TrimSpace(h))] = i
	}
	for _, want := range csvHeader[1:] { // name is optional
		if _, ok := idx[want]; !ok {
			return nil, fmt.Errorf("taskset csv: missing column %q", want)
		}
	}
	var s Set
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("taskset csv line %d: %w", line, err)
		}
		var t Task
		if i, ok := idx["name"]; ok && i < len(rec) {
			t.Name = rec[i]
		}
		if t.C, err = timeunit.Parse(rec[idx["c"]]); err != nil {
			return nil, fmt.Errorf("taskset csv line %d: column c: %w", line, err)
		}
		if t.D, err = timeunit.Parse(rec[idx["d"]]); err != nil {
			return nil, fmt.Errorf("taskset csv line %d: column d: %w", line, err)
		}
		if t.T, err = timeunit.Parse(rec[idx["t"]]); err != nil {
			return nil, fmt.Errorf("taskset csv line %d: column t: %w", line, err)
		}
		if t.A, err = strconv.Atoi(strings.TrimSpace(rec[idx["a"]])); err != nil {
			return nil, fmt.Errorf("taskset csv line %d: column a: %w", line, err)
		}
		s.Tasks = append(s.Tasks, t)
	}
	return &s, nil
}
