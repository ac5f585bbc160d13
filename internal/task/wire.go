package task

import (
	"bytes"
	"strconv"
	"strings"

	"fpgasched/internal/jsonwire"
	"fpgasched/internal/timeunit"
)

// AppendJSON appends the set's compact JSON encoding — the bytes
// json.Marshal produces for the set's jsonSet form — to b, without
// reflection or an intermediate copy of the set.
func (s *Set) AppendJSON(b []byte) []byte {
	b = append(b, `{"tasks":[`...)
	for i, t := range s.Tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if t.Name != "" {
			b = append(b, `"name":`...)
			b = jsonwire.AppendString(b, t.Name)
			b = append(b, ',')
		}
		b = append(b, `"c":"`...)
		b = t.C.Append(b)
		b = append(b, `","d":"`...)
		b = t.D.Append(b)
		b = append(b, `","t":"`...)
		b = t.T.Append(b)
		b = append(b, `","a":`...)
		b = strconv.AppendInt(b, int64(t.A), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// parseWireSet decodes the canonical wire shape of a set,
//
//	{"tasks":[{"name":"…","c":"…","d":"…","t":"…","a":N},…]}
//
// with fields in any order and any JSON whitespace, in one pass and
// without reflection: encoding and decoding the set is most of what a
// cache hit costs the client and the server, and encoding/json spends
// that time in reflection and in re-scanning the same bytes. It
// reports ok = false on anything outside that subset — string escapes,
// bytes outside printable ASCII, null, a key that is not exactly one of
// the field names, a non-integer area, a duration that does not parse,
// trailing data — and decides nothing on its own: the caller then runs
// the strict per-task decode. On every input it accepts, that decode
// yields the same tasks (duplicate keys included: the last one wins in
// both), which FuzzSetUnmarshalJSON checks.
func parseWireSet(data []byte) ([]Task, bool) {
	p := jsonwire.NewParser(data)
	// Every task is one object, so the braces bound the task count.
	tasks, ok := parseSet(&p, bytes.Count(data, []byte("{"))-1)
	return tasks, ok && p.End()
}

// ParseWire reads one set in parseWireSet's subset at p's cursor, for
// a codec that embeds sets in a larger document; hint is the expected
// task count (0 if unknown). On ok = false the cursor is unspecified
// and the enclosing codec falls back to encoding/json, which decodes
// the set through Set.UnmarshalJSON.
func ParseWire(p *jsonwire.Parser, hint int) (*Set, bool) {
	tasks, ok := parseSet(p, hint)
	if !ok {
		return nil, false
	}
	return &Set{Tasks: tasks}, true
}

// parseSet reads the set object at p's cursor.
func parseSet(p *jsonwire.Parser, hint int) (tasks []Task, ok bool) {
	ok = p.Object(func(key string) bool {
		if key != "tasks" || tasks != nil {
			return false
		}
		tasks = make([]Task, 0, max(hint, 0))
		return p.Array(func() bool {
			t, ok := parseTask(p)
			tasks = append(tasks, t)
			return ok
		})
	})
	return tasks, ok && tasks != nil
}

// parseTask reads one task object. Duplicate keys are allowed: the
// last one wins, as in encoding/json.
func parseTask(p *jsonwire.Parser) (Task, bool) {
	var jt jsonTask
	ok := p.Object(func(key string) (ok bool) {
		switch key {
		case "name":
			// A name outlives the parse; copy it so it does not pin
			// the whole input.
			jt.Name, ok = p.Str()
			jt.Name = strings.Clone(jt.Name)
		case "c":
			jt.C, ok = p.Str()
		case "d":
			jt.D, ok = p.Str()
		case "t":
			jt.T, ok = p.Str()
		case "a":
			jt.A, ok = p.Int()
		}
		return ok
	})
	if !ok {
		return Task{}, false
	}
	c, err1 := timeunit.Parse(jt.C)
	d, err2 := timeunit.Parse(jt.D)
	t, err3 := timeunit.Parse(jt.T)
	if err1 != nil || err2 != nil || err3 != nil {
		return Task{}, false
	}
	return Task{Name: jt.Name, C: c, D: d, T: t, A: jt.A}, true
}
