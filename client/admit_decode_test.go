package client

import (
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"fpgasched/api"
)

// matchesDecoder pins decodePlain to the streaming json.Decoder decode
// it replaces: the same response and the same error text, on bodies
// inside and outside the fast parser's plain subset, and when the
// connection fails mid-body.
func matchesDecoder[T any, P plainParser[T]](t *testing.T, bodies []string) {
	t.Helper()
	errReset := errors.New("connection reset by peer")
	for _, body := range bodies {
		for _, broken := range []bool{false, true} {
			reader := func() io.Reader {
				if broken {
					return io.MultiReader(strings.NewReader(body), iotest.ErrReader(errReset))
				}
				return strings.NewReader(body)
			}
			var got, want T
			gotErr := decodePlain(reader(), P(&got))
			wantErr := json.NewDecoder(reader()).Decode(&want)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Errorf("%q (broken %v): error %v, json.Decoder says %v", body, broken, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q (broken %v): %+v, json.Decoder gives %+v", body, broken, got, want)
			}
		}
	}
}

// TestDecodeAdmitMatchesDecoder pins the admit response's decode.
func TestDecodeAdmitMatchesDecoder(t *testing.T) {
	matchesDecoder[api.AdmitResponse](t, []string{
		"{\n  \"admitted\": true,\n  \"proved_by\": \"DP\"\n}\n",
		`{"admitted":false,"reason":"café"}`,
		`{"admitted":true,"Proved_By":"DP","extra":[1,2]}`,
		`{"admitted":true} {"admitted":false}`,
		`{"certificate":{"failing_task":1.5}}`,
		`{"admitted":tru`,
		`null`,
		``,
	})
}

// TestDecodeAnalyzeMatchesDecoder pins the analyze response's decode.
func TestDecodeAnalyzeMatchesDecoder(t *testing.T) {
	matchesDecoder[api.AnalyzeResponse](t, []string{
		"{\n  \"columns\": 10,\n  \"result\": {\n    \"schedulable\": true,\n    \"verdicts\": [\n      {\n        \"test\": \"GN2\",\n        \"schedulable\": true\n      }\n    ]\n  }\n}\n",
		`{"columns":10,"results":[{"schedulable":false,"verdicts":[]},{"schedulable":true,"verdicts":null}]}`,
		`{"columns":10,"result":{"schedulable":false,"verdicts":[{"test":"DP","reason":"τ1 rejected"}]}}`,
		`{"columns":10,"Result":{"schedulable":true},"extra":1}`,
		`{"columns":10} {"columns":11}`,
		`{"columns":1.5}`,
		`{"columns":10,"result":{"verdicts":[{"failing_task":2}]}`,
		`null`,
		``,
	})
}
