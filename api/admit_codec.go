package api

import (
	"slices"
	"strconv"

	"fpgasched/internal/jsonwire"
)

// The admit response is the largest body on the write path: an
// accepting DP certificate repeats US(Γ), a fraction whose terms run to
// hundreds of digits at a few dozen residents, in every check. Its
// codec below replaces reflective encoding/json on both sides of the
// wire; FuzzAdmitResponseEncode and FuzzAdmitResponseDecode pin it to
// encoding/json.

// AppendJSON appends r exactly as a json.Encoder with
// SetIndent("", "  ") writes it, trailing newline included — the bytes
// every fpgaschedd JSON response carries — in one pass and without
// reflection.
func (r *AdmitResponse) AppendJSON(b []byte) []byte {
	b = slices.Grow(b, 64+len(r.ProvedBy)+len(r.Reason)+sizeHint(r.Certificate))
	b = append(b, "{\n  \"admitted\": "...)
	b = strconv.AppendBool(b, r.Admitted)
	if r.ProvedBy != "" {
		b = appendKey(b, 1, "proved_by")
		b = jsonwire.AppendString(b, r.ProvedBy)
	}
	if r.Reason != "" {
		b = appendKey(b, 1, "reason")
		b = jsonwire.AppendString(b, r.Reason)
	}
	if r.Certificate != nil {
		b = appendKey(b, 1, "certificate")
		b = appendCertificate(b, 1, r.Certificate)
	}
	return append(b, "\n}\n"...)
}

// sizeHint estimates the encoded size of c, so the encoding is built
// in one allocation.
func sizeHint(c *Verdict) int {
	if c == nil {
		return 0
	}
	n := 160 + len(c.Test) + len(c.Reason) + len(c.AcceptedBy)
	for i := range c.Checks {
		n += 160 + len(c.Checks[i].LHS) + len(c.Checks[i].RHS) + len(c.Checks[i].Lambda)
	}
	for i := range c.SubVerdicts {
		n += sizeHint(&c.SubVerdicts[i])
	}
	return n
}

// appendKey starts a member of an object nested depth levels deep: the
// separator (a comma unless the object was just opened), the
// indentation and the key.
func appendKey(b []byte, depth int, key string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = appendIndent(b, depth)
	b = append(b, '"')
	b = append(b, key...)
	return append(b, "\": "...)
}

// appendIndent starts a new line indented depth levels.
func appendIndent(b []byte, depth int) []byte {
	b = append(b, '\n')
	for range depth {
		b = append(b, "  "...)
	}
	return b
}

// appendCertificate appends c as a value nested depth levels deep.
func appendCertificate(b []byte, depth int, c *Verdict) []byte {
	in := depth + 1
	b = append(b, '{')
	b = appendKey(b, in, "test")
	b = jsonwire.AppendString(b, c.Test)
	b = appendKey(b, in, "schedulable")
	b = strconv.AppendBool(b, c.Schedulable)
	if c.Reason != "" {
		b = appendKey(b, in, "reason")
		b = jsonwire.AppendString(b, c.Reason)
	}
	if c.FailingTask != nil {
		b = appendKey(b, in, "failing_task")
		b = strconv.AppendInt(b, int64(*c.FailingTask), 10)
	}
	if c.AcceptedBy != "" {
		b = appendKey(b, in, "accepted_by")
		b = jsonwire.AppendString(b, c.AcceptedBy)
	}
	if len(c.Checks) > 0 {
		b = appendKey(b, in, "checks")
		b = append(b, '[')
		for i := range c.Checks {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIndent(b, in+1)
			b = appendCheck(b, in+1, &c.Checks[i])
		}
		b = appendIndent(b, in)
		b = append(b, ']')
	}
	if len(c.SubVerdicts) > 0 {
		b = appendKey(b, in, "sub_verdicts")
		b = append(b, '[')
		for i := range c.SubVerdicts {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIndent(b, in+1)
			b = appendCertificate(b, in+1, &c.SubVerdicts[i])
		}
		b = appendIndent(b, in)
		b = append(b, ']')
	}
	b = appendIndent(b, depth)
	return append(b, '}')
}

// appendCheck appends c as a value nested depth levels deep.
func appendCheck(b []byte, depth int, c *Check) []byte {
	in := depth + 1
	b = append(b, '{')
	b = appendKey(b, in, "task_index")
	b = strconv.AppendInt(b, int64(c.TaskIndex), 10)
	b = appendKey(b, in, "lhs")
	b = jsonwire.AppendString(b, c.LHS)
	b = appendKey(b, in, "rhs")
	b = jsonwire.AppendString(b, c.RHS)
	b = appendKey(b, in, "satisfied")
	b = strconv.AppendBool(b, c.Satisfied)
	if c.Lambda != "" {
		b = appendKey(b, in, "lambda")
		b = jsonwire.AppendString(b, c.Lambda)
	}
	if c.Condition != 0 {
		b = appendKey(b, in, "condition")
		b = strconv.AppendInt(b, int64(c.Condition), 10)
	}
	b = appendIndent(b, depth)
	return append(b, '}')
}

// ParseJSON decodes data into r in one pass, without reflection, with
// every string a substring of one copy of data. It accepts only the
// plain subset of the admit response's JSON: exactly the field names
// (each at most once per object), strings without escapes (printable
// ASCII; reasons also valid UTF-8), integer numbers, and nothing after
// the value but whitespace. On anything else — escapes, non-ASCII
// outside a reason, null, an unknown, duplicate or case-variant key,
// trailing data — it reports false and leaves r unspecified; the
// caller then decodes the same bytes with json.Decoder, whose result
// and error are authoritative. On every input it accepts, r equals
// what json.Decoder decodes into a zero AdmitResponse.
func (r *AdmitResponse) ParseJSON(data []byte) bool {
	*r = AdmitResponse{}
	p := jsonwire.NewParser(data)
	var seen fieldSet
	return p.Object(func(key string) (ok bool) {
		switch key {
		case "admitted":
			r.Admitted, ok = p.Bool()
		case "proved_by":
			r.ProvedBy, ok = p.Str()
		case "reason":
			r.Reason, ok = p.Text()
		case "certificate":
			r.Certificate = new(Verdict)
			ok = parseCertificate(&p, r.Certificate)
		}
		return ok && seen.first(key)
	}) && p.End()
}

// fieldSet records the keys of one object already read, to refuse a
// duplicate (encoding/json keeps the last of repeated scalars and
// merges repeated objects; the plain subset has neither). It holds up
// to seven keys, the most any object of the admit or analyze codec
// has, and is only asked about keys the object knows.
type fieldSet struct {
	keys [7]string
	n    int
}

func (s *fieldSet) first(key string) bool {
	for _, k := range s.keys[:s.n] {
		if k == key {
			return false
		}
	}
	s.keys[s.n] = key
	s.n++
	return true
}

func parseCertificate(p *jsonwire.Parser, c *Verdict) bool {
	var seen fieldSet
	return p.Object(func(key string) (ok bool) {
		switch key {
		case "test":
			c.Test, ok = p.Str()
		case "schedulable":
			c.Schedulable, ok = p.Bool()
		case "reason":
			c.Reason, ok = p.Text()
		case "failing_task":
			var ft int
			ft, ok = p.Int()
			c.FailingTask = &ft
		case "accepted_by":
			c.AcceptedBy, ok = p.Str()
		case "checks":
			c.Checks = []Check{}
			ok = p.Array(func() bool {
				c.Checks = append(c.Checks, Check{})
				return parseCheck(p, &c.Checks[len(c.Checks)-1])
			})
		case "sub_verdicts":
			c.SubVerdicts = []Verdict{}
			ok = p.Array(func() bool {
				c.SubVerdicts = append(c.SubVerdicts, Verdict{})
				return parseCertificate(p, &c.SubVerdicts[len(c.SubVerdicts)-1])
			})
		}
		return ok && seen.first(key)
	})
}

func parseCheck(p *jsonwire.Parser, c *Check) bool {
	var seen fieldSet
	return p.Object(func(key string) (ok bool) {
		switch key {
		case "task_index":
			c.TaskIndex, ok = p.Int()
		case "lhs":
			c.LHS, ok = p.Str()
		case "rhs":
			c.RHS, ok = p.Str()
		case "satisfied":
			c.Satisfied, ok = p.Bool()
		case "lambda":
			c.Lambda, ok = p.Str()
		case "condition":
			c.Condition, ok = p.Int()
		}
		return ok && seen.first(key)
	})
}
