package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// encodeJSON is the frame as the parent's json.Encoder wrote it.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// checkDecodeRequest holds decodeRequest against json.Unmarshal on one
// line: same error (nil-ness and text), same value. It decodes twice,
// without scratch and with a warm scratch that holds an earlier compose
// frame's functions, as a connection's does. got starts dirty, so a
// missed reset shows, and its stale Functions must come through
// untouched: the decoder writes only into the scratch it is handed.
func checkDecodeRequest(t *testing.T, line []byte) {
	t.Helper()
	var want Request
	werr := json.Unmarshal(line, &want)
	for _, fns := range [][]int{nil, {5, 4, 3, 2, 1}} {
		stale := []int{9, 9, 9, 9, 9, 9, 9, 9}
		got := Request{Op: "stale", Seq: 7, Tenant: "stale", Functions: stale[:1], CPU: 9, Session: 9}
		if gerr := decodeRequest(line, &got, fns); !sameError(gerr, werr) {
			t.Fatalf("decodeRequest(%q, scratch %v) error = %v, encoding/json says %v", line, fns, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeRequest(%q, scratch %v)\n got %#v\nwant %#v", line, fns, got, want)
		}
		if !slices.Equal(stale, []int{9, 9, 9, 9, 9, 9, 9, 9}) {
			t.Fatalf("decodeRequest(%q) wrote into the previous request's functions: %v", line, stale)
		}
	}
}

func checkDecodeResponse(t *testing.T, line []byte) {
	t.Helper()
	got := Response{OK: true, Op: "stale", Code: "stale", Error: "stale", Phi: 9, Components: []PlacedComponent{{Node: 9}}}
	var want Response
	gerr, werr := decodeResponse(line, &got), json.Unmarshal(line, &want)
	if !sameError(gerr, werr) {
		t.Fatalf("decodeResponse(%q) error = %v, encoding/json says %v", line, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeResponse(%q)\n got %#v\nwant %#v", line, got, want)
	}
}

// Palettes for the random values: every float-formatting regime of
// encoding/json (omitted zero, 'f', 'e' on both sides, the 1e-6 and
// 1e21 cut-offs, one- and two-digit exponents, subnormal, extremes) and
// strings from plain through every class the encoder must escape.
var (
	floatPalette = []float64{
		0, math.Copysign(0, -1), 1, -1, 4, 40, 0.9, 1e5, 30, 0.1, 1.0 / 3,
		1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 5e-324, 2.2250738585072014e-308,
		1e20, 9.999999999999999e20, 1e21, 1.5e21, 1e100, math.MaxFloat64,
		-1e-7, -1e21, -0.000123, 123456789.125, 0.046062, 1e-5,
	}
	stringPalette = []string{
		"", "t0", "tenant-1", "compose", "hello", "protocol", "unknown-session", "?",
		"session 12 not live", "it's plain", `say "hi"`, `back\slash`, "a<b>c&d",
		"tab\there", "line\nbreak", "nul\x00", "del\x7f", "café", " sep", "bad\xffutf8", "日本",
	}
	intPalette = []int64{0, 1, -1, 3, 42, 9999, math.MaxInt32, math.MinInt64, math.MaxInt64, 1e17, 1e18}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		return pick(rng, floatPalette)
	}
}

func randInts(rng *rand.Rand) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+rng.Intn(5))
	for i := range out {
		out[i] = int(pick(rng, intPalette))
	}
	return out
}

func randRequest(rng *rand.Rand) Request {
	return Request{
		Op: pick(rng, stringPalette), Seq: pick(rng, intPalette), Proto: int(pick(rng, intPalette)),
		Tenant: pick(rng, stringPalette), Functions: randInts(rng),
		CPU: randFloat(rng), MemoryMB: randFloat(rng), Delay: randFloat(rng),
		LossProb: randFloat(rng), BandwidthKbps: randFloat(rng), Weight: randFloat(rng),
		Session: pick(rng, intPalette),
	}
}

func randResponse(rng *rand.Rand) Response {
	r := Response{
		OK: rng.Intn(2) == 0, Op: pick(rng, stringPalette), Seq: pick(rng, intPalette),
		Code: pick(rng, stringPalette), Dimension: pick(rng, stringPalette), Error: pick(rng, stringPalette),
		Proto: int(pick(rng, intPalette)), Session: pick(rng, intPalette), Phi: randFloat(rng),
		CommitDeadlineMs: pick(rng, intPalette),
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		r.Components = []PlacedComponent{}
	default:
		r.Components = make([]PlacedComponent, 1+rng.Intn(4))
		for i := range r.Components {
			r.Components[i] = PlacedComponent{Position: i, Function: int(pick(rng, intPalette)), Component: rng.Intn(500), Node: -rng.Intn(3)}
		}
	}
	return r
}

// TestCodecMatchesEncodingJSON is the wire-compatibility proof: for
// seeded random frames the encoder's bytes are json.Encoder's, and the
// decoder reads those bytes (and a re-spaced copy) to json.Unmarshal's
// value.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	respace := func(b []byte) []byte {
		b = bytes.ReplaceAll(b, []byte(`,"`), []byte(" ,\t\""))
		return bytes.ReplaceAll(b, []byte(`":`), []byte("\" : "))
	}
	var buf []byte
	for i := 0; i < 5000; i++ {
		req, resp := randRequest(rng), randResponse(rng)

		want, werr := encodeJSON(req)
		got, gerr := appendRequest(buf[:0], &req)
		if !sameError(gerr, werr) || (werr == nil && !bytes.Equal(got, want)) {
			t.Fatalf("appendRequest(%#v)\n got %q, %v\nwant %q, %v", req, got, gerr, want, werr)
		}
		checkDecodeRequest(t, want)
		checkDecodeRequest(t, respace(want))

		want, werr = encodeJSON(resp)
		got, gerr = appendResponse(got[:0], &resp)
		if !sameError(gerr, werr) || (werr == nil && !bytes.Equal(got, want)) {
			t.Fatalf("appendResponse(%#v)\n got %q, %v\nwant %q, %v", resp, got, gerr, want, werr)
		}
		checkDecodeResponse(t, want)
		checkDecodeResponse(t, respace(want))
		buf = got
	}

	// What JSON cannot carry fails exactly as encoding/json fails it,
	// and leaves the buffer as it was.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req, resp := Request{Op: OpCompose, Delay: f}, Response{Op: OpCompose, Phi: f}
		_, werr := encodeJSON(req)
		if got, gerr := appendRequest([]byte("kept"), &req); !sameError(gerr, werr) || werr == nil || string(got) != "kept" {
			t.Fatalf("appendRequest(delay %v) = %q, %v; encoding/json says %v", f, got, gerr, werr)
		}
		_, werr = encodeJSON(resp)
		if got, gerr := appendResponse([]byte("kept"), &resp); !sameError(gerr, werr) || werr == nil || string(got) != "kept" {
			t.Fatalf("appendResponse(phi %v) = %q, %v; encoding/json says %v", f, got, gerr, werr)
		}
	}
}

// TestCodecAllocs pins the point of the codec: a warm buffer encodes
// any frame without allocating, and frames that carry only ops, codes
// and numbers decode without allocating (ops and codes are interned to
// the package constants), as does a compose frame whose functions go
// into warm scratch. It cost its functions slice, 1 or 2, before the
// connection kept that scratch.
func TestCodecAllocs(t *testing.T) {
	compose := composeReq()
	compose.Op, compose.Seq = OpCompose, 12
	composed := Response{OK: true, Op: OpCompose, Seq: 12, Session: 99, Phi: 0.046062, CommitDeadlineMs: 10000,
		Components: []PlacedComponent{{0, 1, 17, 3}, {1, 2, 40, 8}, {2, 3, 5, 21}}}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendRequest(buf[:0], &compose) }); n != 0 {
		t.Errorf("appendRequest(compose) allocates %v times into a warm buffer", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendResponse(buf[:0], &composed) }); n != 0 {
		t.Errorf("appendResponse(composed) allocates %v times into a warm buffer", n)
	}

	var req Request
	for _, op := range opNames[:opUnknown] {
		line := []byte(`{"op":"` + op + `","seq":3,"session":1}`)
		if n := testing.AllocsPerRun(100, func() { _ = decodeRequest(line, &req, nil) }); n != 0 || req.Op != op || req.Session != 1 {
			t.Errorf("decodeRequest(%s) allocates %v times, got %+v", op, n, req)
		}
	}
	var resp Response
	for _, code := range codes {
		line := []byte(`{"ok":false,"op":"commit","seq":3,"code":"` + code + `"}`)
		if n := testing.AllocsPerRun(100, func() { _ = decodeResponse(line, &resp) }); n != 0 || resp.Code != code {
			t.Errorf("decodeResponse(code %s) allocates %v times, got %+v", code, n, resp)
		}
	}
	line, _ := appendRequest(nil, &compose)
	fns := make([]int, 0, maxFunctions)
	if n := testing.AllocsPerRun(100, func() { _ = decodeRequest(line, &req, fns) }); n != 0 || !reflect.DeepEqual(req, compose) {
		t.Errorf("decodeRequest(compose) allocates %v times into warm scratch, got %+v", n, req)
	}
}

// TestConnScratchBound: a frame of 1 000 functions decodes to what
// encoding/json reads, and leaves the connection holding the scratch it
// had, not the slice that frame grew. The next compose frame reuses
// that scratch without allocating.
func TestConnScratchBound(t *testing.T) {
	var c conn
	var req Request
	small := []byte(`{"op":"compose","functions":[1,2,3]}`)
	if err := c.decode(small, &req); err != nil || len(req.Functions) != 3 {
		t.Fatalf("decode(%s) = %+v, %v", small, req, err)
	}
	kept := c.fns
	var big bytes.Buffer
	big.WriteString(`{"op":"compose","functions":[0`)
	for i := 1; i < 1000; i++ {
		big.WriteString("," + strconv.Itoa(i))
	}
	big.WriteString("]}")
	var want Request
	if err := json.Unmarshal(big.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := c.decode(big.Bytes(), &req); err != nil || !reflect.DeepEqual(req, want) {
		t.Fatalf("decode of 1 000 functions = %d functions, %v; want encoding/json's %d", len(req.Functions), err, len(want.Functions))
	}
	if cap(c.fns) > maxFunctions || &c.fns[:1][0] != &kept[:1][0] {
		t.Fatalf("after 1 000 functions the connection holds a scratch of capacity %d (kept %d), want its own of at most %d",
			cap(c.fns), cap(kept), maxFunctions)
	}
	if n := testing.AllocsPerRun(10, func() { _ = c.decode(small, &req) }); n != 0 || len(req.Functions) != 3 {
		t.Errorf("the next compose frame allocates %v times, got %+v", n, req)
	}
}

// The fuzz targets run their checked-in corpus (testdata/fuzz/) in every
// `go test`; CI fuzzes each for ten seconds on top.

func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) { checkDecodeRequest(t, line) })
}

func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) { checkDecodeResponse(t, line) })
}

// TestFastPathBoundary names which side of the grammar a line falls
// on, so a differential test that only ever compared encoding/json with
// itself would show.
func TestFastPathBoundary(t *testing.T) {
	fast := func(line string) bool {
		var r Request
		d := decoder{b: []byte(line)}
		d.request(&r, nil)
		return d.finish()
	}
	for line, want := range map[string]bool{
		`{"op":"commit","seq":3,"session":1}`:              true,
		` { "op" : "compose" , "functions" : [ 3 , 1 ] } `: true,
		`{"op":"compose","functions":[],"delay":1E5}`:      true,
		`{}`:                              true,
		`{"OP":"commit"}`:                 false,
		`{"op":"commit","op":"teardown"}`: false,
		`{"op":"\u0063ommit"}`:            false,
		`{"op":null}`:                     false,
		`{"op":"commit","session":1.0}`:   false,
		`{"op":"commit","session":` + strconv.Itoa(1e18) + `0}`: false,
		`{"op":"compose","cpu":1e999}`:                          false,
		`{"op":"compose","functions":[1,]}`:                     false,
		`{"op":"commit"} x`:                                     false,
		"{\"op\":\"commit\"}\x00":                               false,
		`{"op":"commit"`:                                        false,
	} {
		if got := fast(line); got != want {
			t.Errorf("fast path takes %q = %v, want %v", line, got, want)
		}
		checkDecodeRequest(t, []byte(line))
	}
}
