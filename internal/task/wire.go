package task

import (
	"bytes"
	"strconv"
	"strings"

	"fpgasched/internal/jsonwire"
)

// appendWireSet appends the compact JSON encoding of tasks — the bytes
// json.Marshal produces for the set's jsonSet form — to b, without
// reflection or an intermediate copy of the set.
func appendWireSet(b []byte, tasks []Task) []byte {
	b = append(b, `{"tasks":[`...)
	for i, t := range tasks {
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
		b = append(b, t.C.String()...)
		b = append(b, `","d":"`...)
		b = append(b, t.D.String()...)
		b = append(b, `","t":"`...)
		b = append(b, t.T.String()...)
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
// the field names, a non-integer area, trailing data — and decides
// nothing on its own: the caller then runs the strict per-task decode.
// On every input it accepts, that decode yields the same tasks
// (duplicate keys included: the last one wins in both), which
// FuzzSetUnmarshalJSON checks.
func parseWireSet(data []byte) (tasks []jsonTask, ok bool) {
	p := jsonwire.NewParser(data)
	ok = p.Object(func(key string) bool {
		if key != "tasks" || tasks != nil {
			return false
		}
		// Every task is one object, so the braces bound the task count.
		tasks = make([]jsonTask, 0, bytes.Count(data, []byte("{"))-1)
		return p.Array(func() bool {
			jt, ok := parseTask(&p)
			tasks = append(tasks, jt)
			return ok
		})
	})
	return tasks, ok && tasks != nil && p.End()
}

// parseTask reads one task object. Duplicate keys are allowed: the
// last one wins, as in encoding/json.
func parseTask(p *jsonwire.Parser) (jt jsonTask, ok bool) {
	ok = p.Object(func(key string) (ok bool) {
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
	return jt, ok
}
