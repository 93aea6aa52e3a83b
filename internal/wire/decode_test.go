package wire

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"ribbon/api"
)

// decodeInfer runs Decode over body as a POST /v1/infer would.
func decodeInfer(body []byte) (api.InferRequest, bool) {
	var req api.InferRequest
	r := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(body))
	return req, Decode(httptest.NewRecorder(), r, &req) == nil
}

// referenceInfer is the contract Decode must meet, written with plain
// encoding/json: at most 1 MiB, no unknown fields, and only whitespace
// after the one value. More alone stops at a closing ']' or '}', so the
// remainder is checked for whitespace too.
func referenceInfer(body []byte) (api.InferRequest, bool) {
	var req api.InferRequest
	if len(body) > maxBodyBytes {
		return req, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil || dec.More() {
		return req, false
	}
	return req, len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) == 0
}

// FuzzDecodeInfer: Decode into api.InferRequest accepts and rejects exactly
// what the reference decoder does, with equal field values on accept.
func FuzzDecodeInfer(f *testing.F) {
	for _, seed := range []string{
		`{"class":"critical","batch":2}`,
		`{"batch":1,"arrival_ms":12.5,"payload":"x"}`,
		`{}`, ` {} `, "{}\n", `{}{}`, `{} x`, `{}]`, `{}}`, `[]`, `null`, `1`, `"s"`,
		`{"batch":-1}`, `{"batch":1e3}`, `{"batch":1.5}`, `{"BATCH":3}`,
		`{"extra":1}`, `{"payload":"é\ud800"}`, `{"class":null}`, ``, ` `, `{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeInfer(body)
		want, wantOK := referenceInfer(body)
		if ok != wantOK {
			t.Fatalf("Decode(%q) accepted=%v, reference accepted=%v", body, ok, wantOK)
		}
		if ok && got != want {
			t.Fatalf("Decode(%q) = %+v, reference %+v", body, got, want)
		}
	})
}

// TestDecodeSizeCap pins the cap's boundary, which the fuzzer's small
// inputs never reach: a 1 MiB body is read, one byte more is refused.
func TestDecodeSizeCap(t *testing.T) {
	body := func(n int) []byte {
		b := []byte(`{"payload":"`)
		b = append(b, strings.Repeat("a", n-len(b)-2)...)
		return append(b, `"}`...)
	}
	if _, ok := decodeInfer(body(maxBodyBytes)); !ok {
		t.Fatal("1 MiB body refused")
	}
	if _, ok := decodeInfer(body(maxBodyBytes + 1)); ok {
		t.Fatal("1 MiB + 1 body accepted")
	}
	// A value within the cap followed by whitespace past it is refused too.
	padded := append([]byte(`{}`), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	if _, ok := decodeInfer(padded); ok {
		t.Fatal("body padded past the cap accepted")
	}
}
