package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"cloudless/internal/eval"
)

// A Reader decodes the state format in one pass, from bytes straight to
// records: a State (snapshot.json, the state endpoint's body) and the JSON
// documents that embed one (the commit log's records). Nothing is decoded
// twice and no map[string]any is built on the way.
//
// It accepts exactly the documents encoding/json's Unmarshal into the
// format's structs accepted, and reads them to the same values — the commit
// log cuts itself at the first record its reader refuses, so a record the
// old decoder took and this one refused would delete committed history. In
// detail: the whole document must be valid JSON (nested at most 10 000
// deep); struct fields match their names exactly or under Unicode case
// folding, a repeated field is read again over the first (maps merge, the
// last scalar wins) and unknown fields are skipped; null leaves a scalar as
// it was and sets a map or slice to nil; integers are decimal without
// fraction or exponent; invalid UTF-8 and lone \u surrogates read as
// U+FFFD; times are what time.Time.UnmarshalJSON makes of the raw token; and
// a value of the wrong kind is an error that does not stop the scan.
type Reader struct {
	data  []byte
	pos   int
	depth int
	// err is the first syntax error. It is sticky, and the reader jumps to
	// the end of the data so that every loop stops.
	err error
	// typeErr is the first value of the wrong kind; it is skipped and the
	// scan goes on, as encoding/json does.
	typeErr error
	buf     []byte       // a string's unescaped bytes, when it has escapes
	keys    []string     // member keys of the objects being built, innermost last
	vals    []eval.Value // members and elements of the values being built
	// names holds the last string read into each slot of a hash of its
	// bytes: keys, types, regions and the ids that attributes and
	// dependencies repeat are allocated once per document, not per record.
	names [256]string
}

// maxDepth is encoding/json's limit on nested objects and arrays.
const maxDepth = 10000

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Finish checks that nothing but whitespace follows what was read, and
// returns the document's first syntax error, else its first type error
// outside a State.
func (r *Reader) Finish() error {
	if r.ws(); r.pos < len(r.data) {
		r.fail("after top-level value")
	}
	if r.err != nil {
		return r.err
	}
	return r.typeErr
}

var (
	stateFields    = []string{"version", "serial", "resources", "outputs"}
	resourceFields = []string{"type", "id", "region", "attrs", "generation", "dependencies", "created_at", "updated_at"}
)

// Decode parses a serialized state.
func Decode(data []byte) (*State, error) {
	r := NewReader(data)
	s, err := r.State()
	if ferr := r.Finish(); ferr != nil {
		return nil, fmt.Errorf("state: decode: %w", ferr)
	}
	return s, err
}

// State reads a state, as Decode does for a whole document. A type error
// inside it, or a version other than 1, is the state's error, not the
// enclosing document's; a syntax error is both.
func (r *Reader) State() (*State, error) {
	outer := r.typeErr
	r.typeErr = nil
	var (
		version, serial int
		resources       map[string]*ResourceState
		outputs         map[string]eval.Value
	)
	r.Fields(stateFields, func(f int) {
		switch f {
		case 0:
			r.Int(&version)
		case 1:
			r.Int(&serial)
		case 2:
			resources = r.resources(resources)
		case 3:
			outputs = r.values(outputs)
		}
	})
	err := r.typeErr
	r.typeErr = outer
	switch {
	case r.err != nil:
		return nil, fmt.Errorf("state: decode: %w", r.err)
	case err != nil:
		return nil, fmt.Errorf("state: decode: %w", err)
	case version != 1:
		return nil, fmt.Errorf("state: unsupported version %d", version)
	}
	if resources == nil {
		resources = map[string]*ResourceState{}
	}
	if outputs == nil {
		outputs = map[string]eval.Value{}
	}
	return &State{Serial: serial, Resources: resources, Outputs: outputs}, nil
}

// resources reads the address-to-record map into m. The records are
// collected first, so a new map is made once, at its final size.
func (r *Reader) resources(m map[string]*ResourceState) map[string]*ResourceState {
	if r.null() {
		return nil
	}
	var recs []*ResourceState
	if !r.object(func(key []byte) { recs = append(recs, r.resource(string(key))) }) {
		return m
	}
	if m == nil {
		m = make(map[string]*ResourceState, len(recs))
	}
	for _, rs := range recs {
		// In document order: a repeated address's last record wins, and a
		// repeated "resources" field merges into the first one's map.
		m[rs.Addr] = rs
	}
	return m
}

// resource reads one record; null reads as a record with nothing but its
// address.
func (r *Reader) resource(addr string) *ResourceState {
	rs := &ResourceState{Addr: addr}
	r.Fields(resourceFields, func(f int) {
		switch f {
		case 0:
			r.String(&rs.Type)
		case 1:
			r.String(&rs.ID)
		case 2:
			r.String(&rs.Region)
		case 3:
			rs.Attrs = r.values(rs.Attrs)
		case 4:
			r.Int(&rs.Generation)
		case 5:
			rs.Dependencies = r.Strings(rs.Dependencies)
		case 6:
			r.timestamp(&rs.CreatedAt)
		case 7:
			r.timestamp(&rs.UpdatedAt)
		}
	})
	if rs.Attrs == nil {
		rs.Attrs = map[string]eval.Value{}
	}
	return rs
}

// values reads a name-to-value map (attributes, outputs) into m.
func (r *Reader) values(m map[string]eval.Value) map[string]eval.Value {
	switch r.ws() {
	case 'n':
		r.null()
		return nil
	case '{':
	default:
		r.mismatch("map")
		return m
	}
	read := r.members()
	if m == nil {
		return read
	}
	maps.Copy(m, read) // a repeated field merges into the first one's map
	return m
}

// value reads one attribute or output value as eval.FromGoWithUnknowns
// built it from encoding/json's any: the unknown sentinel string reads back
// as eval.Unknown.
func (r *Reader) value() eval.Value {
	switch c := r.ws(); c {
	case '{':
		if m := r.members(); m != nil {
			return eval.Object(m)
		}
		return eval.Null
	case '[':
		if !r.open() {
			return eval.Null
		}
		vb := len(r.vals)
		for first := true; r.next(']', &first); {
			v := r.value()
			r.vals = append(r.vals, v)
		}
		l := eval.List(r.vals[vb:]...)
		r.vals = r.vals[:vb]
		return l
	case '"':
		b := r.str()
		if string(b) == eval.UnknownSentinel {
			return eval.Unknown
		}
		return eval.String(r.name(b))
	case 't':
		r.literal("true")
		return eval.True
	case 'f':
		r.literal("false")
		return eval.False
	case 'n':
		r.literal("null")
		return eval.Null
	}
	tok := r.number()
	if r.err != nil {
		return eval.Null
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.typeError(fmt.Errorf("number %s does not fit a float64", tok))
	}
	return eval.Number(f)
}

// members reads the object at the current position into a map made once,
// at its size; nil if the object could not be entered.
func (r *Reader) members() map[string]eval.Value {
	if !r.open() {
		return nil
	}
	kb, vb := len(r.keys), len(r.vals)
	for first := true; r.next('}', &first); {
		key := r.key()
		if r.err != nil {
			break
		}
		r.keys = append(r.keys, r.name(key))
		v := r.value()
		r.vals = append(r.vals, v)
	}
	m := make(map[string]eval.Value, len(r.vals)-vb)
	for i, v := range r.vals[vb:] {
		m[r.keys[kb+i]] = v // in document order, so a repeated key's last value wins
	}
	r.keys, r.vals = r.keys[:kb], r.vals[:vb]
	return m
}

// --- Typed reads -----------------------------------------------------------
//
// Each reads one value at the current position into its target. A null
// leaves a scalar target as it was; a value of another kind is a type error
// and skipped.

// Fields reads an object into a struct whose JSON field names are names,
// calling field with a member's index in names to read its value; members
// that match no name are skipped. A key matches its name exactly or, failing
// that, under Unicode case folding (the first folded match wins), as
// encoding/json matches struct fields.
func (r *Reader) Fields(names []string, field func(int)) {
	r.object(func(key []byte) {
		if i := fieldIndex(key, names); i >= 0 {
			field(i)
		} else {
			r.skip()
		}
	})
}

// object reads an object, calling member with each key (valid until the
// next read), which must read the member's value. It reports whether there
// was an object.
func (r *Reader) object(member func(key []byte)) bool {
	switch r.ws() {
	case '{':
	case 'n':
		r.null()
		return false
	default:
		r.mismatch("object")
		return false
	}
	if !r.open() {
		return false
	}
	for first := true; r.next('}', &first); {
		key := r.key()
		if r.err != nil {
			return true
		}
		member(key)
	}
	return true
}

// Int reads an integer: a number without fraction or exponent that fits an
// int.
func (r *Reader) Int(p *int) {
	switch c := r.ws(); {
	case c == '-' || '0' <= c && c <= '9':
		tok := r.number()
		if r.err != nil {
			return
		}
		n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if err != nil {
			r.typeError(fmt.Errorf("cannot read number %s into an int", tok))
			return
		}
		*p = int(n)
	case c == 'n':
		r.null()
	default:
		r.mismatch("int")
	}
}

// String reads a string.
func (r *Reader) String(p *string) {
	switch r.ws() {
	case '"':
		b := r.str()
		if r.err == nil {
			*p = r.name(b)
		}
	case 'n':
		r.null()
	default:
		r.mismatch("string")
	}
}

// Bool reads true or false.
func (r *Reader) Bool(p *bool) {
	switch r.ws() {
	case 't':
		r.literal("true")
		*p = true
	case 'f':
		r.literal("false")
		*p = false
	case 'n':
		r.null()
	default:
		r.mismatch("bool")
	}
}

// Strings reads an array of strings over s, as encoding/json decodes into a
// []string that already holds s: elements are read in place (a null element
// keeps what that position held) and the slice is cut to the array's length;
// [] is an empty non-nil slice and null is nil.
func (r *Reader) Strings(s []string) []string {
	switch r.ws() {
	case '[':
	case 'n':
		r.null()
		return nil
	default:
		r.mismatch("[]string")
		return s
	}
	if !r.open() {
		return s
	}
	i := 0
	for first := true; r.next(']', &first); i++ {
		if i >= cap(s) {
			s = append(s, "") // grows the way reflect.Value.Grow(1) does
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		r.String(&s[i])
	}
	if i < len(s) {
		s = s[:i]
	}
	if i == 0 {
		s = []string{}
	}
	return s
}

// null consumes a null and reports whether there was one.
func (r *Reader) null() bool {
	if r.ws() != 'n' {
		return false
	}
	r.literal("null")
	return true
}

// skip reads past one value, checking its syntax.
func (r *Reader) skip() {
	switch c := r.ws(); c {
	case '{':
		if !r.open() {
			return
		}
		for first := true; r.next('}', &first); {
			r.key()
			r.skip()
		}
	case '[':
		if !r.open() {
			return
		}
		for first := true; r.next(']', &first); {
			r.skip()
		}
	case '"':
		r.str()
	case 't':
		r.literal("true")
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.number()
	}
}

// timestamp reads a time.Time as encoding/json does: the raw token, quotes and
// escapes included, goes to time.Time.UnmarshalJSON.
func (r *Reader) timestamp(p *time.Time) {
	switch r.ws() {
	case '"':
		start := r.pos
		r.str()
		if r.err != nil {
			return
		}
		if err := p.UnmarshalJSON(r.data[start:r.pos]); err != nil {
			r.typeError(err)
		}
	case 'n':
		r.null()
	default:
		r.mismatch("time.Time")
	}
}

// name returns b as a string, the one already in its slot of r.names when
// that holds the same bytes. The slot hashes the length and the first and
// last four bytes: ids and names that differ only in their middle share a
// slot and take turns in it.
func (r *Reader) name(b []byte) string {
	h := uint32(len(b))
	if n := len(b); n >= 4 {
		h ^= binary.LittleEndian.Uint32(b)*0x9e3779b1 ^ binary.LittleEndian.Uint32(b[n-4:])*0x85ebca77
	} else {
		for _, c := range b {
			h = h*31 + uint32(c)
		}
	}
	slot := &r.names[(h^h>>15)%uint32(len(r.names))]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// --- Errors -----------------------------------------------------------------

// fail records a syntax error at the current position and moves to the end
// of the data.
func (r *Reader) fail(context string) {
	if r.err == nil {
		if r.pos >= len(r.data) {
			r.err = errors.New("unexpected end of JSON input")
		} else {
			r.err = fmt.Errorf("invalid character %q %s (offset %d)", r.data[r.pos], context, r.pos)
		}
	}
	r.pos = len(r.data)
}

// typeError records the document's first type error.
func (r *Reader) typeError(err error) {
	if r.typeErr == nil {
		r.typeErr = err
	}
}

// mismatch records that the value at the current position is not the kind
// the target takes, and skips it.
func (r *Reader) mismatch(want string) {
	kind := "number"
	switch r.ws() {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	pos := r.pos
	r.skip()
	if r.err == nil {
		r.typeError(fmt.Errorf("cannot read %s into %s (offset %d)", kind, want, pos))
	}
}

// --- Tokens -----------------------------------------------------------------

// ws skips whitespace and returns the next byte, 0 at the end of the data.
func (r *Reader) ws() byte {
	for r.pos < len(r.data) {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return c
		}
	}
	return 0
}

// open consumes the '{' or '[' at the current position and enters it.
func (r *Reader) open() bool {
	r.pos++
	if r.depth++; r.depth > maxDepth {
		r.pos--
		r.fail("exceeding the maximum nesting depth")
		return false
	}
	return true
}

// next reports whether the object or array being read has another member,
// consuming the comma before it, or the closing byte after the last one.
func (r *Reader) next(end byte, first *bool) bool {
	c := r.ws()
	if c == end {
		r.pos++
		r.depth--
		return false
	}
	if *first {
		*first = false
		return r.err == nil
	}
	if c != ',' {
		r.fail("after a value in an object or array")
		return false
	}
	r.pos++
	return true
}

// key reads a member's key and the colon after it.
func (r *Reader) key() []byte {
	if r.ws() != '"' {
		r.fail("looking for the beginning of an object key")
		return nil
	}
	k := r.str()
	if r.ws() != ':' {
		r.fail("after an object key")
		return nil
	}
	r.pos++
	return k
}

// literal consumes true, false or null.
func (r *Reader) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if r.pos >= len(r.data) || r.data[r.pos] != lit[i] {
			r.fail("in literal " + lit)
			return
		}
		r.pos++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a number token, checking it against JSON's grammar.
func (r *Reader) number() []byte {
	d, start := r.data, r.pos
	i := start
	digits := func() bool {
		if i >= len(d) || !isDigit(d[i]) {
			return false
		}
		for i < len(d) && isDigit(d[i]) {
			i++
		}
		return true
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		r.pos = i
		r.fail("looking for the beginning of a value")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			r.pos = i
			r.fail("after a decimal point")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			r.pos = i
			r.fail("in an exponent")
			return nil
		}
	}
	r.pos = i
	return d[start:i]
}

// str consumes a string token and returns its contents as encoding/json
// unquotes them. The bytes alias the data when there is nothing to unescape
// or re-encode, else r.buf; either way they are valid until the next read.
func (r *Reader) str() []byte {
	start := r.pos + 1
	for i := start; i < len(r.data); i++ {
		if c := r.data[i]; !plain[c] {
			if c == '"' {
				r.pos = i + 1
				return r.data[start:i]
			}
			return r.strSlow(start, i)
		}
	}
	r.pos = len(r.data)
	r.fail("")
	return nil
}

// plain marks the bytes a string's contents may hold as they are: not the
// quote, the backslash, a control character or a byte of a multi-byte rune.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strSlow finishes a string token with escapes, control characters or
// non-ASCII bytes in it from i on.
func (r *Reader) strSlow(start, i int) []byte {
	d := r.data
	for {
		if i >= len(d) {
			r.pos = i
			r.fail("")
			return nil
		}
		c := d[i]
		if c == '"' {
			break
		}
		if c < ' ' {
			r.pos = i
			r.fail("in a string literal")
			return nil
		}
		if c != '\\' {
			i++
			continue
		}
		if i++; i >= len(d) {
			r.pos = i
			r.fail("")
			return nil
		}
		switch d[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i++
		case 'u':
			for j := 1; j <= 4; j++ {
				if i+j >= len(d) || hexVal(d[i+j]) < 0 {
					r.pos = i + j
					r.fail("in a \\u escape")
					return nil
				}
			}
			i += 5
		default:
			r.pos = i
			r.fail("in a string escape")
			return nil
		}
	}
	r.pos = i + 1
	s := d[start:i]
	b := r.buf[:0]
	for k := 0; k < len(s); {
		switch c := s[k]; {
		case c == '\\':
			switch s[k+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[k:])
				k += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[k:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						k += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // " \ /
				b = append(b, s[k+1])
			}
			k += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			k++
		default:
			rr, size := utf8.DecodeRune(s[k:]) // invalid UTF-8 reads as U+FFFD
			b = utf8.AppendRune(b, rr)
			k += size
		}
	}
	r.buf = b
	return b
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// getu4 decodes the \uXXXX at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := hexVal(c)
		if h < 0 {
			return -1
		}
		r = r*16 + h
	}
	return r
}

// --- Field names ------------------------------------------------------------

// fieldIndex returns the index in names of the field key selects, or -1.
func fieldIndex(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	folded := foldName(arr[:0], key)
	for i, n := range names {
		if len(folded) == len(n) && equalUpper(folded, n) {
			return i
		}
	}
	return -1
}

// equalUpper reports whether folded is the ASCII name n in upper case.
func equalUpper(folded []byte, n string) bool {
	for i := 0; i < len(n); i++ {
		c := n[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if folded[i] != c {
			return false
		}
	}
	return true
}

// foldName appends in case-folded as encoding/json folds struct field names:
// ASCII letters upper-cased, every other rune mapped to the smallest rune of
// its Unicode fold orbit.
func foldName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		rr, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, foldRune(rr))
		i += n
	}
	return out
}

func foldRune(rr rune) rune {
	for {
		r2 := unicode.SimpleFold(rr)
		if r2 <= rr {
			return r2
		}
		rr = r2
	}
}
