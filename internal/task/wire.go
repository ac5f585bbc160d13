package task

import (
	"encoding/json"
	"strconv"
	"strings"
)

// appendWireSet appends the compact JSON encoding of tasks — the bytes
// json.Marshal produces for the set's jsonSet form — to b, without
// reflection or an intermediate copy of the set.
func appendWireSet(b []byte, tasks []Task) ([]byte, error) {
	b = append(b, `{"tasks":[`...)
	for i, t := range tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if t.Name != "" {
			b = append(b, `"name":`...)
			var err error
			if b, err = appendJSONString(b, t.Name); err != nil {
				return nil, err
			}
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
	return append(b, "]}"...), nil
}

// appendJSONString appends s as a JSON string exactly as json.Marshal
// renders it. Printable ASCII other than the characters encoding/json
// escapes (quote, backslash and the HTML-sensitive <, >, &) is copied
// as is; any other string is delegated to json.Marshal.
func appendJSONString(b []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			return append(b, q...), err
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), nil
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
	p := wireParser{b: string(data)}
	if !p.consume('{') {
		return nil, false
	}
	if key, ok := p.str(); !ok || key != "tasks" || !p.consume(':') || !p.consume('[') {
		return nil, false
	}
	// Every task is one object, so the braces bound the task count.
	tasks = make([]jsonTask, 0, strings.Count(p.b, "{")-1)
	if !p.consume(']') {
		for {
			jt, ok := p.task()
			if !ok {
				return nil, false
			}
			tasks = append(tasks, jt)
			if p.consume(']') {
				break
			}
			if !p.consume(',') {
				return nil, false
			}
		}
	}
	if !p.consume('}') {
		return nil, false
	}
	p.ws()
	return tasks, p.i == len(p.b)
}

// wireParser is parseWireSet's cursor over the input. The input is
// converted to a string once, so the fields it reads are substrings of
// it rather than one allocation each.
type wireParser struct {
	b string
	i int
}

// ws skips JSON whitespace.
func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, reporting whether it
// was there.
func (p *wireParser) consume(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII with no escapes.
func (p *wireParser) str() (string, bool) {
	if !p.consume('"') {
		return "", false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", false
		}
	}
	return "", false
}

// int reads a JSON integer (no fraction or exponent) that fits an int.
func (p *wireParser) int() (int, bool) {
	p.ws()
	start, j := p.i, p.i
	if j < len(p.b) && p.b[j] == '-' {
		j++
	}
	digits := j
	for j < len(p.b) && p.b[j] >= '0' && p.b[j] <= '9' {
		j++
	}
	if j == digits || (p.b[digits] == '0' && j-digits > 1) {
		return 0, false
	}
	if j < len(p.b) && (p.b[j] == '.' || p.b[j] == 'e' || p.b[j] == 'E') {
		return 0, false
	}
	v, err := strconv.Atoi(p.b[start:j])
	if err != nil {
		return 0, false
	}
	p.i = j
	return v, true
}

// task reads one task object.
func (p *wireParser) task() (jsonTask, bool) {
	var jt jsonTask
	if !p.consume('{') {
		return jt, false
	}
	if p.consume('}') {
		return jt, true
	}
	for {
		key, ok := p.str()
		if !ok || !p.consume(':') {
			return jt, false
		}
		switch key {
		case "name":
			// A name outlives the parse; copy it so it does not pin
			// the whole input.
			jt.Name, ok = p.str()
			jt.Name = strings.Clone(jt.Name)
		case "c":
			jt.C, ok = p.str()
		case "d":
			jt.D, ok = p.str()
		case "t":
			jt.T, ok = p.str()
		case "a":
			jt.A, ok = p.int()
		default:
			ok = false
		}
		if !ok {
			return jt, false
		}
		if p.consume('}') {
			return jt, true
		}
		if !p.consume(',') {
			return jt, false
		}
	}
}
