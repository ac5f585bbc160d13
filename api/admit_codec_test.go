package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fpgasched/internal/admission"
	"fpgasched/internal/workload"
)

// dpAdmitResponse is the admit response of a DP-proved admission onto
// 30 residents — the accepting path of perfbench's admit-churn: the
// 100-column figure device, light Heterogeneous draws, seed 7. Its
// certificate repeats US(Γ), a fraction of a few hundred digits, in
// all 31 checks.
func dpAdmitResponse(tb testing.TB) AdmitResponse {
	tb.Helper()
	c, err := admission.NewNFController(workload.FigureDeviceColumns)
	if err != nil {
		tb.Fatal(err)
	}
	r := workload.Rand(7)
	light := workload.Heterogeneous(1)
	light.HeavyFraction = 0
	for i := 0; i < 2000; i++ {
		tk := light.Generate(r).Tasks[0]
		tk.Name = fmt.Sprintf("c%d", i)
		d := c.Request(context.Background(), tk)
		if d.Admitted && c.Len() == 31 && d.ProvedBy == "DP" {
			return AdmitResponse{Admitted: true, ProvedBy: d.ProvedBy, Certificate: d.Certificate}
		}
		if c.Len() == 31 {
			c.Release(tk.Name)
		}
	}
	tb.Fatal("no DP-proved admission onto 30 residents in 2000 draws")
	return AdmitResponse{}
}

// encodeIndented is the reference encoding: what the server's generic
// JSON writer sends.
func encodeIndented(tb testing.TB, r *AdmitResponse) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdmitResponseCodec pins the codec on the admit goldens and on a
// 30-resident DP certificate: AppendJSON writes the golden bytes and
// ParseJSON reads them back to the same value json.Decoder gives.
func TestAdmitResponseCodec(t *testing.T) {
	inputs := map[string][]byte{}
	for _, name := range []string{"admit_response_accept", "admit_response_reject", "admit_response_certificate"} {
		data, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = data
	}
	dp := dpAdmitResponse(t)
	inputs["dp30"] = encodeIndented(t, &dp)
	for name, data := range inputs {
		var want AdmitResponse
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got AdmitResponse
		if !got.ParseJSON(data) {
			t.Fatalf("%s: ParseJSON refused the server's own encoding", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ParseJSON = %+v, json.Decoder = %+v", name, got, want)
		}
		if enc := want.AppendJSON(nil); !bytes.Equal(enc, data) {
			t.Fatalf("%s: AppendJSON drifted:\n got %s\nwant %s", name, enc, data)
		}
	}
}

// admitCodecSeeds are the shared seeds of the codec fuzzers, beside the
// committed corpus under testdata/fuzz: every api golden (most of them
// other shapes, which the parser must refuse) and the plain subset's
// edges.
func admitCodecSeeds(f *testing.F) [][]byte {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no api goldens: %v", err)
	}
	var seeds [][]byte
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, s := range []string{
		`{"admitted":true,"proved_by":"<b>&amp;</b>"}`,
		`{"admitted":true,"proved_by":"<b>"}`,
		"{\"admitted\":false,\"reason\":\"\u03c42 rejected\"}",
		`{"admitted":false,"reason":"\u03c42 rejected"}`,
		"{\"admitted\":false,\"reason\":\"bad \xff\xfe utf8\"}",
		"{\"admitted\":false,\"reason\":\"line\u2028sep\"}",
		`{"admitted":false,"reason":"line\u2028sep"}`,
		`{"admitted":false,"reason":"tab\there \"quoted\" back\\slash"}`,
		`{"admitted":true,"proved_by":"GN2","certificate":{"test":"any-nf","schedulable":true,"accepted_by":"GN2","sub_verdicts":[` +
			`{"test":"DP","schedulable":false,"reason":"US exceeds bound","failing_task":0,"checks":[{"task_index":0,"lhs":"3/2","rhs":"1","satisfied":false}]},` +
			`{"test":"GN2","schedulable":true,"checks":[{"task_index":0,"lhs":"3/4","rhs":"1","satisfied":true,"lambda":"1/3","condition":2},` +
			`{"task_index":1,"lhs":"0","rhs":"7/5","satisfied":true,"lambda":"2","condition":1}]}]}}`,
		`{"admitted":false,"certificate":{"test":"DP","schedulable":false,"failing_task":0,"checks":[]}}`,
		`{"certificate":{}}`,
		` { "admitted" : true , "certificate" : { "test" : "DP" , "checks" : [ { "task_index" : -0 } ] } } ` + "\n",
		`{"admitted":true,"admitted":false}`,
		`{"certificate":{"test":"DP"},"certificate":{"schedulable":true}}`,
		`{"certificate":{"checks":[{"lhs":"1","lhs":"2"}]}}`,
		`{"Admitted":true}`,
		`{"certificate":{"Test":"DP","SCHEDULABLE":true}}`,
		`{"admitted":true,"unknown":1}`,
		`null`,
		`{"certificate":null}`,
		`{"proved_by":null}`,
		`{"certificate":{"failing_task":null}}`,
		`{"admitted":true} trailing`,
		`{"admitted":true}{"admitted":false}`,
		`{"certificate":{"failing_task":1.0}}`,
		`{"certificate":{"failing_task":1e2}}`,
		`{"certificate":{"failing_task":01}}`,
		`{"certificate":{"failing_task":99999999999999999999}}`,
		`{"certificate":{"checks":[{"condition":"2"}]}}`,
		`{"admitted":"true"}`,
		`{"admitted":tru}`,
		`{"admitted":true,}`,
		`[]`,
		`{`,
		``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzAdmitResponseEncode pins AppendJSON to json.Encoder with
// SetIndent("", "  "), byte for byte: the fuzz input is decoded into
// a response, and raw — an arbitrary string, invalid UTF-8 included,
// which a decoded string can never be — replaces its proved_by.
func FuzzAdmitResponseEncode(f *testing.F) {
	for _, seed := range admitCodecSeeds(f) {
		f.Add(seed, "")
	}
	for _, raw := range []string{"<script>&amp;", "\u03c42", "\xff\xfe", "line\u2028sep\u2029", "tab\there\x00", `a"b\c`, "\x7f"} {
		f.Add([]byte(`{"admitted":true,"certificate":{"test":"DP","schedulable":true}}`), raw)
	}
	f.Fuzz(func(t *testing.T, data []byte, raw string) {
		var r AdmitResponse
		if json.Unmarshal(data, &r) != nil {
			return
		}
		if raw != "" {
			r.ProvedBy = raw
		}
		want := encodeIndented(t, &r)
		if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON:\n got %q\nwant %q", got, want)
		}
	})
}

// FuzzAdmitResponseDecode pins ParseJSON to json.Decoder on arbitrary
// bytes: whenever ParseJSON accepts an input, json.Decoder decodes it
// without error to an equal value.
func FuzzAdmitResponseDecode(f *testing.F) {
	for _, seed := range admitCodecSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got AdmitResponse
		if !got.ParseJSON(data) {
			return
		}
		var want AdmitResponse
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
			t.Fatalf("%q: ParseJSON accepted, json.Decoder: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: ParseJSON = %+v, json.Decoder = %+v", data, got, want)
		}
	})
}

// BenchmarkAdmitResponseCodec is one accepted admit's trip over the
// wire, minus the transport: the server encodes a 30-resident DP
// admit response and the client decodes it, with the admit codec
// (codec=plain) and with reflective encoding/json (codec=reflect,
// the json.Encoder+SetIndent / json.Decoder pair it replaces).
func BenchmarkAdmitResponseCodec(b *testing.B) {
	resp := dpAdmitResponse(b)
	b.Run("codec=plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data := resp.AppendJSON(nil)
			var out AdmitResponse
			if !out.ParseJSON(data) {
				b.Fatal("ParseJSON refused the encoding")
			}
		}
	})
	b.Run("codec=reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(&resp); err != nil {
				b.Fatal(err)
			}
			var out AdmitResponse
			if err := json.NewDecoder(&buf).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
