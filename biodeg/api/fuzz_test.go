package api_test

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/biodeg/api"
)

// FuzzParseError asserts the client-facing half of the envelope
// contract: ParseError never panics on arbitrary non-2xx bodies
// (proxies hand clients HTML, old servers hand them plain text, the
// network hands them torn JSON), a rejected body yields a nil envelope,
// and an accepted envelope is a usable Go error
// (go test -fuzz=FuzzParseError ./biodeg/api).
func FuzzParseError(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"code":"overloaded","message":"shed","retry_after_s":2}`))
	f.Add([]byte(`{"code":"unavailable","message":"leader disconnected","detail":"context canceled"}`))
	f.Add([]byte(`{"code":"not_found","message":"no such sweep"}`))
	f.Add([]byte(`{"retry_after_s":"not a number","code":"overloaded"}`))
	f.Add([]byte(`<!DOCTYPE html><p>gateway error</p>`))
	f.Add([]byte(`{"code":123}`)) // wrong type for code

	f.Fuzz(func(t *testing.T, body []byte) {
		e, ok := api.ParseError(body) // must never panic
		if !ok {
			if e != nil {
				t.Fatal("rejected body returned a non-nil envelope")
			}
			return
		}
		// The parsed envelope is a usable Go error with its stable code
		// visible to callers switching on it.
		if e.Code == "" || e.Error() == "" {
			t.Fatalf("accepted unusable envelope %+v", e)
		}
	})
}

// FuzzParseRoundTrip asserts the encoding half: an accepted envelope
// re-encodes to a body that parses back to the identical envelope, so
// what a client retries on is exactly what the server said
// (go test -fuzz=FuzzParseRoundTrip ./biodeg/api).
func FuzzParseRoundTrip(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`"bad_request"`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"code":""}`))
	f.Add([]byte(`{"code":"bad_request","message":"invalid bounds"}`))
	f.Add([]byte(`{"code":"overloaded","message":"shed","retry_after_s":1.5}`))
	f.Add([]byte(`{"code":"config_mismatch","message":"digest","detail":"want deadbeef"}`))
	f.Add([]byte(`{"CODE":"bad_request","MESSAGE":"case-folded keys"}`))
	f.Add([]byte(`{"code":"internal","code":"timeout"}`)) // duplicate key: last wins
	f.Add([]byte(`{"code":"overloaded","retry_after_s":1e308}`))
	f.Add([]byte(`{"code":"internal","unknown_field":{"nested":[1,2,3]}}`))
	f.Add([]byte(`{"code":"internal","message":"truncat`)) // torn body
	f.Add([]byte(`<html><body><h1>502 Bad Gateway</h1></body></html>`))
	f.Add([]byte("{\"code\":\"internal\",\"message\":\"\x00binary\xff\"}"))

	f.Fuzz(func(t *testing.T, body []byte) {
		e, ok := api.ParseError(body) // must never panic
		if !ok {
			return
		}
		enc, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		e2, ok := api.ParseError(enc)
		if !ok {
			t.Fatalf("re-encoded envelope %s does not re-parse", enc)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("round trip changed the envelope:\nfirst  %+v\nsecond %+v", e, e2)
		}
	})
}

// FuzzCodeFor pins the status-to-code mapping's totality: every status
// maps to a known stable code, and each explicitly mapped status keeps
// its own code.
func FuzzCodeFor(f *testing.F) {
	for _, s := range []int{0, -1, 200, 400, 404, 405, 409, 413, 429, 500, 503, 504, 999} {
		f.Add(s)
	}
	explicit := map[int]string{
		http.StatusBadRequest:            api.CodeBadRequest,
		http.StatusNotFound:              api.CodeNotFound,
		http.StatusMethodNotAllowed:      api.CodeMethodNotAllowed,
		http.StatusConflict:              api.CodeConfigMismatch,
		http.StatusRequestEntityTooLarge: api.CodePayloadTooLarge,
		http.StatusTooManyRequests:       api.CodeOverloaded,
		http.StatusServiceUnavailable:    api.CodeUnavailable,
		http.StatusGatewayTimeout:        api.CodeTimeout,
	}
	f.Fuzz(func(t *testing.T, status int) {
		code := api.CodeFor(status)
		want, ok := explicit[status]
		if !ok {
			want = api.CodeInternal
		}
		if code != want {
			t.Fatalf("CodeFor(%d) = %q, want %q", status, code, want)
		}
	})
}
