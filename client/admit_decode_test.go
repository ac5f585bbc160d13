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

// TestDecodeAdmitMatchesDecoder pins decodeAdmit to the streaming
// json.Decoder decode it replaces: the same response and the same
// error text, on bodies inside and outside the fast parser's plain
// subset, and when the connection fails mid-body.
func TestDecodeAdmitMatchesDecoder(t *testing.T) {
	errReset := errors.New("connection reset by peer")
	bodies := []string{
		"{\n  \"admitted\": true,\n  \"proved_by\": \"DP\"\n}\n",
		`{"admitted":false,"reason":"café"}`,
		`{"admitted":true,"Proved_By":"DP","extra":[1,2]}`,
		`{"admitted":true} {"admitted":false}`,
		`{"certificate":{"failing_task":1.5}}`,
		`{"admitted":tru`,
		`null`,
		``,
	}
	for _, body := range bodies {
		for _, broken := range []bool{false, true} {
			reader := func() io.Reader {
				if broken {
					return io.MultiReader(strings.NewReader(body), iotest.ErrReader(errReset))
				}
				return strings.NewReader(body)
			}
			var got, want api.AdmitResponse
			gotErr := decodeAdmit(reader(), &got)
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
