package api

import (
	"bytes"
	"slices"
	"strconv"

	"fpgasched/internal/jsonwire"
	"fpgasched/internal/task"
)

// POST /v1/analyze crosses the wire four times — the client encodes
// the request, the server decodes it, encodes the response, and the
// client decodes that — and on a cold or a cached analysis those legs
// cost as much as the answer. The codec below serves all four in one
// pass without reflection, like the admit response's. Each parser
// accepts only a plain subset of the JSON and otherwise leaves the
// bytes to encoding/json, whose answer is authoritative;
// FuzzAnalyzeRequestDecode, FuzzAnalyzeResponseEncode and
// FuzzAnalyzeResponseDecode pin the codec to encoding/json.

// AppendJSON appends r exactly as json.Marshal encodes it — the
// compact request body the client sends.
func (r *AnalyzeRequest) AppendJSON(b []byte) []byte {
	n := 64
	if r.Taskset != nil {
		n += 64 * len(r.Taskset.Tasks)
	}
	for _, s := range r.Tasksets {
		if s != nil {
			n += 16 + 64*len(s.Tasks)
		}
	}
	b = slices.Grow(b, n)
	b = append(b, `{"columns":`...)
	b = strconv.AppendInt(b, int64(r.Columns), 10)
	if len(r.Tests) > 0 {
		b = append(b, `,"tests":[`...)
		for i, name := range r.Tests {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonwire.AppendString(b, name)
		}
		b = append(b, ']')
	}
	if r.Taskset != nil {
		b = append(b, `,"taskset":`...)
		b = r.Taskset.AppendJSON(b)
	}
	if len(r.Tasksets) > 0 {
		b = append(b, `,"tasksets":[`...)
		for i, s := range r.Tasksets {
			if i > 0 {
				b = append(b, ',')
			}
			if s == nil {
				b = append(b, "null"...)
			} else {
				b = s.AppendJSON(b)
			}
		}
		b = append(b, ']')
	}
	if r.Detail {
		b = append(b, `,"detail":true`...)
	}
	if r.Explain {
		b = append(b, `,"explain":true`...)
	}
	return append(b, '}')
}

// ParseJSON decodes data into r in one pass, without reflection. It
// accepts only the plain subset of the request's JSON: exactly the
// field names (each at most once per object; a set's tasks as
// task.ParseWire reads them), strings of printable ASCII without
// escapes, integer numbers, and nothing after the value but
// whitespace. On anything else it reports false and leaves r
// unspecified; the caller then decodes the same bytes with a
// json.Decoder that disallows unknown fields, whose result and error
// are authoritative. On every input it accepts, r equals what that
// decoder decodes into a zero AnalyzeRequest. Test names are
// substrings of one copy of data.
func (r *AnalyzeRequest) ParseJSON(data []byte) bool {
	*r = AnalyzeRequest{}
	p := jsonwire.NewParser(data)
	var seen fieldSet
	return p.Object(func(key string) (ok bool) {
		switch key {
		case "columns":
			r.Columns, ok = p.Int()
		case "tests":
			r.Tests = []string{}
			ok = p.Array(func() bool {
				name, ok := p.Str()
				r.Tests = append(r.Tests, name)
				return ok
			})
		case "taskset":
			// Every task is one object; the request and the set are the
			// other two.
			r.Taskset, ok = task.ParseWire(&p, bytes.Count(data, []byte("{"))-2)
		case "tasksets":
			r.Tasksets = []*TaskSet{}
			ok = p.Array(func() bool {
				s, ok := task.ParseWire(&p, 0)
				r.Tasksets = append(r.Tasksets, s)
				return ok
			})
		case "detail":
			r.Detail, ok = p.Bool()
		case "explain":
			r.Explain, ok = p.Bool()
		}
		return ok && seen.first(key)
	}) && p.End()
}

// AppendJSON appends r exactly as a json.Encoder with
// SetIndent("", "  ") writes it, trailing newline included — the bytes
// the server sends.
func (r *AnalyzeResponse) AppendJSON(b []byte) []byte {
	n := 64
	if r.Result != nil {
		n += resultSizeHint(r.Result)
	}
	for i := range r.Results {
		n += resultSizeHint(&r.Results[i])
	}
	b = slices.Grow(b, n)
	b = append(b, "{\n  \"columns\": "...)
	b = strconv.AppendInt(b, int64(r.Columns), 10)
	if r.Result != nil {
		b = appendKey(b, 1, "result")
		b = appendResult(b, 1, r.Result)
	}
	if len(r.Results) > 0 {
		b = appendKey(b, 1, "results")
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIndent(b, 2)
			b = appendResult(b, 2, &r.Results[i])
		}
		b = appendIndent(b, 1)
		b = append(b, ']')
	}
	return append(b, "\n}\n"...)
}

// resultSizeHint estimates the encoded size of r.
func resultSizeHint(r *AnalyzeResult) int {
	n := 64
	for i := range r.Verdicts {
		n += sizeHint(&r.Verdicts[i])
	}
	return n
}

// appendResult appends r as a value nested depth levels deep.
func appendResult(b []byte, depth int, r *AnalyzeResult) []byte {
	in := depth + 1
	b = append(b, '{')
	b = appendKey(b, in, "schedulable")
	b = strconv.AppendBool(b, r.Schedulable)
	b = appendKey(b, in, "verdicts")
	switch {
	case r.Verdicts == nil:
		b = append(b, "null"...)
	case len(r.Verdicts) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range r.Verdicts {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIndent(b, in+1)
			b = appendCertificate(b, in+1, &r.Verdicts[i])
		}
		b = appendIndent(b, in)
		b = append(b, ']')
	}
	b = appendIndent(b, depth)
	return append(b, '}')
}

// ParseJSON decodes data into r in one pass, on the same plain subset
// and with the same contract as AdmitResponse.ParseJSON: on every input
// it accepts, r equals what json.Decoder decodes into a zero
// AnalyzeResponse, and every string is a substring of one copy of
// data.
func (r *AnalyzeResponse) ParseJSON(data []byte) bool {
	*r = AnalyzeResponse{}
	p := jsonwire.NewParser(data)
	var seen fieldSet
	return p.Object(func(key string) (ok bool) {
		switch key {
		case "columns":
			r.Columns, ok = p.Int()
		case "result":
			r.Result = new(AnalyzeResult)
			ok = parseResult(&p, r.Result)
		case "results":
			r.Results = []AnalyzeResult{}
			ok = p.Array(func() bool {
				r.Results = append(r.Results, AnalyzeResult{})
				return parseResult(&p, &r.Results[len(r.Results)-1])
			})
		}
		return ok && seen.first(key)
	}) && p.End()
}

func parseResult(p *jsonwire.Parser, r *AnalyzeResult) bool {
	var seen fieldSet
	return p.Object(func(key string) (ok bool) {
		switch key {
		case "schedulable":
			r.Schedulable, ok = p.Bool()
		case "verdicts":
			r.Verdicts = []Verdict{}
			ok = p.Array(func() bool {
				r.Verdicts = append(r.Verdicts, Verdict{})
				return parseCertificate(p, &r.Verdicts[len(r.Verdicts)-1])
			})
		}
		return ok && seen.first(key)
	})
}
