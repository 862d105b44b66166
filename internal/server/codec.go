package server

import (
	"encoding/json"
	"math"
	"strconv"
)

// The frame codec. The wire format is whatever encoding/json makes of
// Request and Response; this file is a second, reflection-free way to
// produce and read exactly those bytes for the frames the protocol
// actually exchanges.
//
// Encoding: appendRequest/appendResponse write the object json.Encoder
// would (field order, omitempty, float formatting, trailing newline).
// A frame holding a string that needs escaping or a float JSON cannot
// carry goes through json.Marshal instead, so its bytes — or its error
// — are encoding/json's.
//
// Decoding: decodeRequest/decodeResponse accept a closed grammar — one
// object whose keys are the struct's tags, exactly cased, each at most
// once; plain strings; JSON numbers that fit the field; true/false;
// arrays of integers or of placed-component objects. Anything outside
// it (escapes, non-ASCII, null, unknown or duplicate keys, type
// mismatches, out-of-range numbers, trailing bytes) resets the value
// and hands the same line to json.Unmarshal. encoding/json is the
// specification; the fast path only ever agrees with it
// (TestCodecMatchesEncodingJSON, FuzzDecodeRequest/Response).

// plain reports whether c stands for itself inside a JSON string under
// json.Encoder's default (HTML-escaping) rules: printable ASCII except
// the quote, the backslash and <, >, &.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s quoted; ok turns false if s needs escaping.
func appendString(dst []byte, s string, ok bool) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), ok
}

// appendInt appends key and v unless v is zero (omitempty).
func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendFloat appends key and f unless f is zero (omitempty), formatted
// as encoding/json's floatEncoder does: shortest round-trip digits, 'e'
// form below 1e-6 and from 1e21 with a two-digit negative exponent cut
// to one. ok turns false on NaN and ±Inf, which JSON cannot represent.
func appendFloat(dst []byte, key string, f float64, ok bool) ([]byte, bool) {
	if f == 0 {
		return dst, ok
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	dst = append(dst, key...)
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64), ok
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, ok
}

// appendSlow is the encoder's fallback: the frame as json.Encoder
// writes it. It marshals a copy so that the caller's value does not
// escape on account of a path it almost never takes.
func appendSlow[T any](dst []byte, v *T) ([]byte, error) {
	c := *v
	b, err := json.Marshal(&c)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

// decodeSlow is the decoder's fallback, json.Unmarshal into a zero
// value; like appendSlow it keeps the caller's value off the heap.
func decodeSlow[T any](line []byte, v *T) error {
	var c T
	err := json.Unmarshal(line, &c)
	*v = c
	return err
}

// appendRequest appends r's frame, newline included, to dst.
func appendRequest(dst []byte, r *Request) ([]byte, error) {
	start := len(dst)
	dst, ok := appendString(append(dst, `{"op":`...), r.Op, true)
	dst = appendInt(dst, `,"seq":`, r.Seq)
	dst = appendInt(dst, `,"proto":`, int64(r.Proto))
	if r.Tenant != "" {
		dst, ok = appendString(append(dst, `,"tenant":`...), r.Tenant, ok)
	}
	if len(r.Functions) > 0 {
		dst = append(dst, `,"functions":`...)
		sep := byte('[')
		for _, f := range r.Functions {
			dst = strconv.AppendInt(append(dst, sep), int64(f), 10)
			sep = ','
		}
		dst = append(dst, ']')
	}
	dst, ok = appendFloat(dst, `,"cpu":`, r.CPU, ok)
	dst, ok = appendFloat(dst, `,"memoryMB":`, r.MemoryMB, ok)
	dst, ok = appendFloat(dst, `,"delay":`, r.Delay, ok)
	dst, ok = appendFloat(dst, `,"lossProb":`, r.LossProb, ok)
	dst, ok = appendFloat(dst, `,"bandwidthKbps":`, r.BandwidthKbps, ok)
	dst, ok = appendFloat(dst, `,"weight":`, r.Weight, ok)
	dst = appendInt(dst, `,"session":`, r.Session)
	if !ok {
		return appendSlow(dst[:start], r)
	}
	return append(dst, '}', '\n'), nil
}

// appendResponse appends r's frame, newline included, to dst.
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	start := len(dst)
	dst = strconv.AppendBool(append(dst, `{"ok":`...), r.OK)
	dst, ok := appendString(append(dst, `,"op":`...), r.Op, true)
	dst = appendInt(dst, `,"seq":`, r.Seq)
	if r.Code != "" {
		dst, ok = appendString(append(dst, `,"code":`...), r.Code, ok)
	}
	if r.Dimension != "" {
		dst, ok = appendString(append(dst, `,"dimension":`...), r.Dimension, ok)
	}
	if r.Error != "" {
		dst, ok = appendString(append(dst, `,"error":`...), r.Error, ok)
	}
	dst = appendInt(dst, `,"proto":`, int64(r.Proto))
	dst = appendInt(dst, `,"session":`, r.Session)
	dst, ok = appendFloat(dst, `,"phi":`, r.Phi, ok)
	if len(r.Components) > 0 {
		dst = append(dst, `,"components":`...)
		sep := byte('[')
		for i := range r.Components {
			pc := &r.Components[i]
			dst = strconv.AppendInt(append(append(dst, sep), `{"position":`...), int64(pc.Position), 10)
			sep = ','
			dst = strconv.AppendInt(append(dst, `,"function":`...), int64(pc.Function), 10)
			dst = strconv.AppendInt(append(dst, `,"component":`...), int64(pc.Component), 10)
			dst = strconv.AppendInt(append(dst, `,"node":`...), int64(pc.Node), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendInt(dst, `,"commitDeadlineMs":`, r.CommitDeadlineMs)
	if !ok {
		return appendSlow(dst[:start], r)
	}
	return append(dst, '}', '\n'), nil
}

// decoder walks one frame of the closed grammar. bad latches on the
// first byte outside it; every method is a no-op returning zero after
// that, so callers check once per key.
type decoder struct {
	b   []byte
	i   int
	bad bool
}

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c (after whitespace) or latches bad.
func (d *decoder) expect(c byte) {
	if d.bad || d.peek() != c {
		d.bad = true
		return
	}
	d.i++
}

// more steps through the elements of an object or array whose closing
// byte is end: it consumes the separator before every element but the
// first and reports whether an element follows. A separator before the
// closing byte leaves the cursor on end, where no element parses.
func (d *decoder) more(end byte, first bool) bool {
	c := d.peek()
	if d.bad || c == 0 {
		d.bad = true
		return false
	}
	if c == end {
		d.i++
		return false
	}
	if !first {
		d.expect(',')
	}
	return !d.bad
}

// str returns the bytes between the quotes of a plain string.
func (d *decoder) str() []byte {
	d.expect('"')
	start := d.i
	for !d.bad && d.i < len(d.b) {
		c := d.b[d.i]
		d.i++
		if c == '"' {
			return d.b[start : d.i-1]
		}
		if !plain(c) {
			break
		}
	}
	d.bad = true
	return nil
}

// key returns an object key and consumes the colon after it.
func (d *decoder) key() []byte {
	k := d.str()
	d.expect(':')
	return k
}

// seen marks bit in a key set, latching bad on a repeat: encoding/json
// lets the last duplicate win, which the fast path does not model.
func (d *decoder) seen(set *uint, bit uint) {
	if *set&(1<<bit) != 0 {
		d.bad = true
	}
	*set |= 1 << bit
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// number returns the bytes of a JSON number literal; integer reports
// that it has neither fraction nor exponent.
func (d *decoder) number() (lit []byte, integer bool) {
	d.peek()
	if d.bad {
		return nil, false
	}
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	intStart := d.i
	if n := d.digits(); n == 0 || (n > 1 && d.b[intStart] == '0') {
		d.bad = true
		return nil, false
	}
	integer = true
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		integer = false
		if d.digits() == 0 {
			d.bad = true
			return nil, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		integer = false
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			d.bad = true
			return nil, false
		}
	}
	return d.b[start:d.i], integer
}

// int64 reads an integer literal that fits; encoding/json refuses
// fractions, exponents and overflow for integer fields, so the fast
// path does not take them.
func (d *decoder) int64() int64 {
	lit, integer := d.number()
	if !integer {
		d.bad = true
		return 0
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 { // 18 digits always fit; longer literals are the fallback's
		d.bad = true
		return 0
	}
	var v int64
	for _, c := range lit {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v
}

// int reads an integer literal into the platform int.
func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

// float reads a number literal as encoding/json does, by ParseFloat.
func (d *decoder) float() float64 {
	lit, _ := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil { // out of range
		d.bad = true
	}
	return f
}

// boolean reads true or false.
func (d *decoder) boolean() bool {
	d.peek()
	rest := d.b[d.i:]
	switch {
	case d.bad:
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false
	}
	d.bad = true
	return false
}

// count returns how many times c occurs before the next ']', up to
// maxFunctions: the element count of an array of integers (c = ',',
// plus one) or of flat objects (c = '{'). It only sizes the slice —
// append grows a longer array — so a frame of nothing but commas
// cannot make the decoder allocate eight times its length.
func (d *decoder) count(c byte) int {
	n := 0
	for _, x := range d.b[d.i:] {
		if x == ']' || n == maxFunctions {
			break
		}
		if x == c {
			n++
		}
	}
	return n
}

// finish reports whether the frame parsed and nothing follows it.
func (d *decoder) finish() bool {
	d.peek()
	return !d.bad && d.i == len(d.b)
}

// intern returns table's own string for b when it has one, so a frame
// whose op and code are the package's constants decodes without a
// string allocation.
func intern(b []byte, table []string) string {
	for _, s := range table {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// decodeRequest parses one request line into r, which it resets first.
// Accept/reject, error text and decoded value are json.Unmarshal's. A
// functions array is decoded into fns[:0], the caller's scratch, which
// it may grow; what fns held is never read, and a caller that passes
// nil gets a fresh slice. An absent key leaves Functions nil, and [] makes it
// empty but non-nil, as encoding/json does.
func decodeRequest(line []byte, r *Request, fns []int) error {
	*r = Request{}
	d := decoder{b: line}
	d.request(r, fns)
	if d.finish() {
		return nil
	}
	return decodeSlow(line, r)
}

func (d *decoder) request(r *Request, fns []int) {
	d.expect('{')
	var set uint
	for first := true; d.more('}', first); first = false {
		switch k := d.key(); string(k) {
		case "op":
			d.seen(&set, 0)
			r.Op = intern(d.str(), opNames[:opUnknown])
		case "seq":
			d.seen(&set, 1)
			r.Seq = d.int64()
		case "proto":
			d.seen(&set, 2)
			r.Proto = d.int()
		case "tenant":
			d.seen(&set, 3)
			r.Tenant = string(d.str())
		case "functions":
			d.seen(&set, 4)
			d.expect('[')
			r.Functions = fns[:0]
			if r.Functions == nil {
				r.Functions = make([]int, 0, d.count(',')+1)
			}
			for first := true; d.more(']', first); first = false {
				r.Functions = append(r.Functions, d.int())
			}
		case "cpu":
			d.seen(&set, 5)
			r.CPU = d.float()
		case "memoryMB":
			d.seen(&set, 6)
			r.MemoryMB = d.float()
		case "delay":
			d.seen(&set, 7)
			r.Delay = d.float()
		case "lossProb":
			d.seen(&set, 8)
			r.LossProb = d.float()
		case "bandwidthKbps":
			d.seen(&set, 9)
			r.BandwidthKbps = d.float()
		case "weight":
			d.seen(&set, 10)
			r.Weight = d.float()
		case "session":
			d.seen(&set, 11)
			r.Session = d.int64()
		default:
			d.bad = true
		}
	}
}

// decodeResponse parses one response line into r, which it resets
// first; the contract is decodeRequest's.
func decodeResponse(line []byte, r *Response) error {
	*r = Response{}
	d := decoder{b: line}
	d.response(r)
	if d.finish() {
		return nil
	}
	return decodeSlow(line, r)
}

func (d *decoder) response(r *Response) {
	d.expect('{')
	var set uint
	for first := true; d.more('}', first); first = false {
		switch k := d.key(); string(k) {
		case "ok":
			d.seen(&set, 0)
			r.OK = d.boolean()
		case "op":
			d.seen(&set, 1)
			r.Op = intern(d.str(), opNames[:opUnknown])
		case "seq":
			d.seen(&set, 2)
			r.Seq = d.int64()
		case "code":
			d.seen(&set, 3)
			r.Code = intern(d.str(), codes[:])
		case "dimension":
			d.seen(&set, 4)
			r.Dimension = string(d.str())
		case "error":
			d.seen(&set, 5)
			r.Error = string(d.str())
		case "proto":
			d.seen(&set, 6)
			r.Proto = d.int()
		case "session":
			d.seen(&set, 7)
			r.Session = d.int64()
		case "phi":
			d.seen(&set, 8)
			r.Phi = d.float()
		case "components":
			d.seen(&set, 9)
			d.expect('[')
			r.Components = make([]PlacedComponent, 0, d.count('{'))
			for first := true; d.more(']', first); first = false {
				r.Components = append(r.Components, d.component())
			}
		case "commitDeadlineMs":
			d.seen(&set, 10)
			r.CommitDeadlineMs = d.int64()
		default:
			d.bad = true
		}
	}
}

func (d *decoder) component() (pc PlacedComponent) {
	d.expect('{')
	var set uint
	for first := true; d.more('}', first); first = false {
		switch k := d.key(); string(k) {
		case "position":
			d.seen(&set, 0)
			pc.Position = d.int()
		case "function":
			d.seen(&set, 1)
			pc.Function = d.int()
		case "component":
			d.seen(&set, 2)
			pc.Component = d.int()
		case "node":
			d.seen(&set, 3)
			pc.Node = d.int()
		default:
			d.bad = true
		}
	}
	return pc
}
