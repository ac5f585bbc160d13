package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"

	"fpgasched/api"
)

// FuzzAnalyzeRequestDecode pins decodeAnalyze to the strict json.Decoder
// every other request body goes through (decodeJSON), on arbitrary
// bytes: the same request and the same error text, with the body read
// whole, failing mid-body, and cut by the body limit. Whenever the
// decode succeeds, the client's encoding of the request (AppendJSON)
// is json.Marshal's, byte for byte.
func FuzzAnalyzeRequestDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "api", "testdata", "*.golden.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no api goldens: %v", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{"columns":10,"tests":["DP","GN1"],"taskset":{"tasks":[{"name":"a","c":"1","d":"4","t":"4","a":2}]},"explain":true}`,
		`{"columns":10,"tasksets":[{"tasks":[{"c":"1","d":"4","t":"4","a":2}]},{"tasks":[]}],"detail":true}`,
		`{"columns":10,"taskset":{"tasks":[{"name":"τ1","c":"1","d":"4","t":"4","a":2}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"name":"a\"b","c":"1","d":"4","t":"4","a":2}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"c":"1","d":"4","t":"4","a":2,"area":3}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"c":"1","c":"2","d":"4","t":"4","a":2}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"c":"1.0000000001","d":"4","t":"4","a":2}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"c":"x","d":"4","t":"4","a":2}]}}`,
		`{"columns":10,"taskset":{"tasks":[{"c":"1","d":"4","t":"4","a":2.5}]}}`,
		`{"columns":10,"taskset":{"tasks":null}}`,
		`{"columns":10,"tasksets":[null]}`,
		`{"columns":10,"taskset":null}`,
		`{"columns":10,"taskset":{}}`,
		`{"columns":10,"tests":[],"tasksets":[]}`,
		`{"columns":10,"tests":["DP"],"tests":["GN1"]}`,
		`{"columns":10,"columns":11}`,
		`{"columns":10,"tests":"DP"}`,
		`{"Columns":10,"TaskSet":{"tasks":[]}}`,
		`{"columns":10,"extra":1}`,
		`{"columns":1.0}`,
		`{"columns":99999999999999999999}`,
		`{"columns":-0,"detail":false,"explain":false}`,
		`{"columns":10} {"columns":11}`,
		`{"columns":10}]`,
		`{"columns":10}   `,
		`{"columns":10,"detail":null}`,
		`{"columns":10,"explain":"true"}`,
		`{"columns":10,}`,
		`null`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(s))
	}
	errReset := errors.New("connection reset by peer")
	bodies := map[string]func([]byte) io.Reader{
		"whole": func(data []byte) io.Reader { return bytes.NewReader(data) },
		"reset": func(data []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(data), iotest.ErrReader(errReset))
		},
		"limited": func(data []byte) io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), int64(len(data)/2))
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, body := range bodies {
			var got, want api.AnalyzeRequest
			gotErr := decodeAnalyze(body(data), &got)
			wantErr := decodeStrict(body(data), &want)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%q (%s): error %v, json.Decoder says %v", data, name, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q (%s): %+v, json.Decoder gives %+v", data, name, got, want)
			}
			if gotErr != nil {
				continue
			}
			ref, err := json.Marshal(&got)
			if err != nil {
				t.Fatal(err)
			}
			if enc := got.AppendJSON(nil); !bytes.Equal(enc, ref) {
				t.Fatalf("%q: AppendJSON = %s, json.Marshal = %s", data, enc, ref)
			}
		}
	})
}
