package api

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/workload"
)

// coldAnalyze is one analyze-cold exchange: a 30-task Unconstrained set
// rescaled to US(Γ) ≈ 35 on the 100-column figure device, sent with
// the default tests, and the server's non-explain any-nf answer — a
// rejection whose reason joins every member's, with fractions of
// hundreds of digits.
func coldAnalyze(tb testing.TB) (AnalyzeRequest, AnalyzeResponse) {
	tb.Helper()
	set, _ := workload.Unconstrained(30).GenerateWithTargetUS(workload.Rand(1), 35)
	req := AnalyzeRequest{Columns: workload.FigureDeviceColumns, Taskset: set}
	v := core.Decide(context.Background(), core.ForNF(), core.NewDevice(req.Columns), set)
	if v.Err != nil {
		tb.Fatal(v.Err)
	}
	return req, AnalyzeResponse{Columns: req.Columns, Result: &AnalyzeResult{
		Schedulable: v.Schedulable,
		Verdicts:    []Verdict{VerdictFromCore(v, false)},
	}}
}

// decodeRequest is the server's reference decode of a request body: a
// json.Decoder that disallows unknown fields.
func decodeRequest(data []byte) (AnalyzeRequest, error) {
	var r AnalyzeRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&r)
	return r, err
}

// encodeResponse is the reference encoding of a response: what the
// server's generic JSON writer sends.
func encodeResponse(tb testing.TB, r *AnalyzeResponse) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readGoldens returns the api goldens whose names match pattern.
func readGoldens(tb testing.TB, pattern string) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", pattern+".golden.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no goldens match %s: %v", pattern, err)
	}
	out := map[string][]byte{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(path)] = data
	}
	return out
}

// TestAnalyzeCodec pins the four legs on the analyze goldens and on a
// cold exchange: the request's AppendJSON writes json.Marshal's bytes
// and its ParseJSON reads them (and the indented goldens) back as the
// strict decoder does; the response's AppendJSON writes the golden
// bytes and its ParseJSON reads them back as json.Decoder does.
func TestAnalyzeCodec(t *testing.T) {
	coldReq, coldResp := coldAnalyze(t)
	requests := readGoldens(t, "analyze_request_*")
	marshalled, err := json.Marshal(&coldReq)
	if err != nil {
		t.Fatal(err)
	}
	requests["cold"] = marshalled
	for name, data := range requests {
		want, err := decodeRequest(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got AnalyzeRequest
		if !got.ParseJSON(data) {
			t.Fatalf("%s: ParseJSON refused a plain request", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ParseJSON = %+v, decoder = %+v", name, got, want)
		}
		ref, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		if enc := want.AppendJSON(nil); !bytes.Equal(enc, ref) {
			t.Fatalf("%s: AppendJSON drifted:\n got %s\nwant %s", name, enc, ref)
		}
	}

	responses := readGoldens(t, "analyze_response_*")
	responses["cold"] = encodeResponse(t, &coldResp)
	for name, data := range responses {
		var want AnalyzeResponse
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if enc := want.AppendJSON(nil); !bytes.Equal(enc, data) {
			t.Fatalf("%s: AppendJSON drifted:\n got %s\nwant %s", name, enc, data)
		}
		var got AnalyzeResponse
		if !got.ParseJSON(data) {
			t.Fatalf("%s: ParseJSON refused the server's own encoding", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ParseJSON = %+v, json.Decoder = %+v", name, got, want)
		}
	}
}

// analyzeCodecSeeds are the analyze codec fuzzers' seeds: every api
// golden and the plain subset's edges.
func analyzeCodecSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, data := range readGoldens(f, "*") {
		seeds = append(seeds, data)
	}
	for _, s := range []string{
		`{"columns":10,"result":{"schedulable":false,"verdicts":[{"test":"GN2","schedulable":false,"reason":"no λ ≥ C/T satisfies condition 1 or 2 for task 0 (t1)","failing_task":0}]}}`,
		`{"columns":10,"result":{"schedulable":false,"verdicts":[{"test":"DP","schedulable":false,"reason":"US(Γ)=Γ"}]}}`,
		"{\"columns\":10,\"result\":{\"schedulable\":false,\"verdicts\":[{\"test\":\"DP\",\"reason\":\"bad \xff\xfe utf8\"}]}}",
		"{\"columns\":10,\"result\":{\"schedulable\":false,\"verdicts\":[{\"test\":\"DP\",\"reason\":\"line\u2028sep\"}]}}",
		`{"columns":10,"result":{"schedulable":true,"verdicts":[]}}`,
		`{"columns":10,"result":{"schedulable":true,"verdicts":null}}`,
		`{"columns":10,"results":[]}`,
		`{"columns":10,"results":[{"schedulable":true,"verdicts":[{"test":"GN2","schedulable":true,"accepted_by":"GN2"}]},{"schedulable":false,"verdicts":[]}]}`,
		`{"columns":10,"result":{"schedulable":true},"result":{"verdicts":[]}}`,
		`{"Columns":10}`,
		`{"columns":10,"extra":1}`,
		`{"columns":10,"tests":["DP","GN1"],"taskset":{"tasks":[{"name":"a","c":"1","d":"4","t":"4","a":2}]},"explain":true}`,
		`{"columns":10,"tasksets":[{"tasks":[{"c":"1","d":"4","t":"4","a":2}]},{"tasks":[]}],"detail":true}`,
		`{"columns":10,"tasksets":[null]}`,
		`{"columns":10,"taskset":null}`,
		`{"columns":10,"taskset":{}}`,
		`{"columns":10,"taskset":{"tasks":[{"c":"1","d":"4","t":"4","a":2,"area":3}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"c":"1.0000000001","d":"4","t":"4","a":2}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"c":"x","d":"4","t":"4","a":2}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"name":"ab","c":"1","d":"4","t":"4","a":2}]}}`,
		`{"columns":10,"tests":[],"tasksets":[]}`,
		`{"columns":10,"tests":["DP"],"tests":["GN1"]}`,
		`{"columns":10,"tests":"DP"}`,
		`{"columns":1.0}`,
		`{"columns":-0,"detail":false,"explain":false}`,
		`{"columns":10} {"columns":11}`,
		`{"columns":10}]`,
		`{"columns":10,"detail":null}`,
		`{"columns":10,}`,
		`null`,
		`[]`,
		`{`,
		``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzAnalyzeResponseEncode pins the response's AppendJSON to
// json.Encoder with SetIndent("", "  "), byte for byte, and its
// ParseJSON to json.Decoder: the fuzz input is decoded into a
// response, raw — an arbitrary string, invalid UTF-8 included — becomes
// its first verdict's reason, and the encoding is compared; whenever
// ParseJSON accepts the input itself, json.Decoder decodes it without
// error to an equal value.
func FuzzAnalyzeResponseEncode(f *testing.F) {
	for _, seed := range analyzeCodecSeeds(f) {
		f.Add(seed, "")
	}
	for _, raw := range []string{"<script>&amp;", "no λ ≥ C/T", "\xff\xfe", "line\u2028sep\u2029", "tab\there\x00", `a"b\c`, "\x7f"} {
		f.Add([]byte(`{"columns":10,"result":{"schedulable":false,"verdicts":[{"test":"DP"}]}}`), raw)
	}
	f.Fuzz(func(t *testing.T, data []byte, raw string) {
		var parsed AnalyzeResponse
		if parsed.ParseJSON(data) {
			var want AnalyzeResponse
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
				t.Fatalf("%q: ParseJSON accepted, json.Decoder: %v", data, err)
			}
			if !reflect.DeepEqual(parsed, want) {
				t.Fatalf("%q: ParseJSON = %+v, json.Decoder = %+v", data, parsed, want)
			}
		}
		var r AnalyzeResponse
		if json.Unmarshal(data, &r) != nil {
			return
		}
		if raw != "" && r.Result != nil && len(r.Result.Verdicts) > 0 {
			r.Result.Verdicts[0].Reason = raw
		}
		want := encodeResponse(t, &r)
		if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON:\n got %q\nwant %q", got, want)
		}
	})
}

// BenchmarkAnalyzeCodec is one cold analyze's four wire legs, minus the
// transport and the analysis: the client encodes the request, the
// server decodes it and encodes the rejection, and the client decodes
// that, with the analyze codec (codec=plain) and with reflective
// encoding/json (codec=reflect: json.Marshal, the strict json.Decoder,
// json.Encoder+SetIndent and json.Decoder, the legs it replaces).
func BenchmarkAnalyzeCodec(b *testing.B) {
	req, resp := coldAnalyze(b)
	b.Run("codec=plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var in AnalyzeRequest
			if !in.ParseJSON(req.AppendJSON(nil)) {
				b.Fatal("ParseJSON refused the request")
			}
			var out AnalyzeResponse
			if !out.ParseJSON(resp.AppendJSON(nil)) {
				b.Fatal("ParseJSON refused the response")
			}
		}
	})
	b.Run("codec=reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(&req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := decodeRequest(data); err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(&resp); err != nil {
				b.Fatal(err)
			}
			var out AnalyzeResponse
			if err := json.NewDecoder(&buf).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
