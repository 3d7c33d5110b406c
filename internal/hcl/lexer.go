package hcl

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer scans CCL source into tokens. Newlines are significant (they
// terminate attribute definitions) except when they follow a token that
// cannot end an expression, or inside brackets/parens, mirroring the
// automatic statement termination rules of HCL.
type lexer struct {
	src      string
	filename string

	pos   Pos // position of next rune to read
	start Pos // start of token under construction

	// bracket depth: inside ( ) or [ ] newlines are insignificant.
	parenDepth int

	diags Diagnostics
}

func newLexer(filename, src string) *lexer {
	return &lexer{
		src:      src,
		filename: filename,
		pos:      Pos{Line: 1, Column: 1, Byte: 0},
	}
}

// Lex tokenizes the whole input.
func Lex(filename, src string) ([]Token, Diagnostics) {
	lx := newLexer(filename, src)
	// Configurations run at about five source bytes per token; one
	// allocation at four holds a typical file, where growing from empty
	// copied the slice dozens of times on a large one.
	toks := make([]Token, 0, len(src)/4+1)
	for {
		t := lx.next()
		toks = append(toks, t)
		if t.Type == TokenEOF {
			break
		}
	}
	return toks, lx.diags
}

func (lx *lexer) errorf(rng Range, format string, args ...any) {
	lx.diags = lx.diags.Append(Errorf(rng, format, args...))
}

func (lx *lexer) peek() rune {
	if lx.pos.Byte >= len(lx.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos.Byte:])
	return r
}

func (lx *lexer) peek2() rune {
	if lx.pos.Byte >= len(lx.src) {
		return -1
	}
	_, w := utf8.DecodeRuneInString(lx.src[lx.pos.Byte:])
	if lx.pos.Byte+w >= len(lx.src) {
		return -1
	}
	r2, _ := utf8.DecodeRuneInString(lx.src[lx.pos.Byte+w:])
	return r2
}

func (lx *lexer) advance() rune {
	if lx.pos.Byte >= len(lx.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.pos.Byte:])
	lx.pos.Byte += w
	if r == '\n' {
		lx.pos.Line++
		lx.pos.Column = 1
	} else {
		lx.pos.Column += w
	}
	return r
}

func (lx *lexer) rangeFromStart() Range {
	return Range{Filename: lx.filename, Start: lx.start, End: lx.pos}
}

func (lx *lexer) token(t TokenType) Token {
	rng := lx.rangeFromStart()
	return Token{Type: t, Text: lx.src[lx.start.Byte:lx.pos.Byte], Range: rng}
}

// skipSpace consumes spaces, tabs, carriage returns, comments, and — when
// inside brackets — newlines. It reports whether a significant newline was
// crossed.
func (lx *lexer) skipSpace() bool {
	sawNewline := false
	for {
		switch r := lx.peek(); {
		case r == ' ' || r == '\t' || r == '\r':
			lx.advance()
		case r == '\n':
			if lx.parenDepth > 0 {
				lx.advance()
				continue
			}
			return sawNewline // caller emits the newline token
		case r == '#':
			lx.skipLineComment()
		case r == '/' && lx.peek2() == '/':
			lx.skipLineComment()
		case r == '/' && lx.peek2() == '*':
			lx.skipBlockComment()
		default:
			return sawNewline
		}
	}
}

func (lx *lexer) skipLineComment() {
	for {
		r := lx.peek()
		if r == -1 || r == '\n' {
			return
		}
		lx.advance()
	}
}

func (lx *lexer) skipBlockComment() {
	open := lx.pos
	lx.advance() // '/'
	lx.advance() // '*'
	for {
		r := lx.advance()
		if r == -1 {
			lx.errorf(Range{Filename: lx.filename, Start: open, End: lx.pos},
				"unterminated block comment")
			return
		}
		if r == '*' && lx.peek() == '/' {
			lx.advance()
			return
		}
	}
}

func (lx *lexer) next() Token {
	lx.skipSpace()
	lx.start = lx.pos

	r := lx.peek()
	switch {
	case r == -1:
		return lx.token(TokenEOF)
	case r == '\n':
		lx.advance()
		// Collapse consecutive blank lines into a single newline token.
		for {
			lx.skipSpace()
			if lx.peek() == '\n' {
				lx.advance()
				continue
			}
			break
		}
		return Token{Type: TokenNewline, Text: "\n", Range: lx.rangeFromStart()}
	case isIdentStart(r):
		return lx.lexIdent()
	case r >= '0' && r <= '9':
		return lx.lexNumber()
	case r == '"':
		return lx.lexString()
	case r == '<' && lx.peek2() == '<':
		return lx.lexHeredoc()
	}

	lx.advance()
	switch r {
	case '{':
		return lx.token(TokenLBrace)
	case '}':
		return lx.token(TokenRBrace)
	case '[':
		lx.parenDepth++
		return lx.token(TokenLBracket)
	case ']':
		if lx.parenDepth > 0 {
			lx.parenDepth--
		}
		return lx.token(TokenRBracket)
	case '(':
		lx.parenDepth++
		return lx.token(TokenLParen)
	case ')':
		if lx.parenDepth > 0 {
			lx.parenDepth--
		}
		return lx.token(TokenRParen)
	case ',':
		return lx.token(TokenComma)
	case ':':
		return lx.token(TokenColon)
	case '.':
		if lx.peek() == '.' && lx.peek2() == '.' {
			lx.advance()
			lx.advance()
			return lx.token(TokenEllipsis)
		}
		return lx.token(TokenDot)
	case '=':
		switch lx.peek() {
		case '=':
			lx.advance()
			return lx.token(TokenEq)
		case '>':
			lx.advance()
			return lx.token(TokenArrow)
		}
		return lx.token(TokenAssign)
	case '!':
		if lx.peek() == '=' {
			lx.advance()
			return lx.token(TokenNotEq)
		}
		return lx.token(TokenBang)
	case '<':
		if lx.peek() == '=' {
			lx.advance()
			return lx.token(TokenLTE)
		}
		return lx.token(TokenLT)
	case '>':
		if lx.peek() == '=' {
			lx.advance()
			return lx.token(TokenGTE)
		}
		return lx.token(TokenGT)
	case '+':
		return lx.token(TokenPlus)
	case '-':
		return lx.token(TokenMinus)
	case '*':
		return lx.token(TokenStar)
	case '/':
		return lx.token(TokenSlash)
	case '%':
		return lx.token(TokenPercent)
	case '&':
		if lx.peek() == '&' {
			lx.advance()
			return lx.token(TokenAnd)
		}
	case '|':
		if lx.peek() == '|' {
			lx.advance()
			return lx.token(TokenOr)
		}
	case '?':
		return lx.token(TokenQuestion)
	}

	tok := lx.token(TokenInvalid)
	lx.errorf(tok.Range, "unexpected character %q", r)
	return tok
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (lx *lexer) lexIdent() Token {
	for isIdentPart(lx.peek()) {
		lx.advance()
	}
	return lx.token(TokenIdent)
}

func (lx *lexer) lexNumber() Token {
	for {
		r := lx.peek()
		if r >= '0' && r <= '9' {
			lx.advance()
			continue
		}
		if r == '.' {
			// Only part of the number when followed by a digit; otherwise it
			// is an attribute traversal dot (e.g. in "8.id" never occurs, but
			// "1..." must not absorb the dot).
			if r2 := lx.peek2(); r2 >= '0' && r2 <= '9' {
				lx.advance()
				continue
			}
		}
		if r == 'e' || r == 'E' {
			r2 := lx.peek2()
			if (r2 >= '0' && r2 <= '9') || r2 == '+' || r2 == '-' {
				lx.advance() // e
				lx.advance() // sign or digit
				continue
			}
		}
		break
	}
	return lx.token(TokenNumber)
}

// lexString scans a quoted string. Interpolations ("${...}") are kept inside
// the token text; the parser re-scans them into template parts. Nested braces
// and quotes inside interpolations are tracked so the string does not end
// prematurely.
func (lx *lexer) lexString() Token {
	lx.advance() // opening quote
	for {
		r := lx.peek()
		switch r {
		case -1, '\n':
			tok := lx.token(TokenInvalid)
			lx.errorf(tok.Range, "unterminated string literal")
			return tok
		case '\\':
			lx.advance()
			lx.advance() // escaped char (validity checked during unquoting)
		case '$':
			if lx.peek2() == '{' {
				lx.advance() // $
				lx.advance() // {
				depth := 1
				for depth > 0 {
					ir := lx.advance()
					switch ir {
					case -1:
						tok := lx.token(TokenInvalid)
						lx.errorf(tok.Range, "unterminated interpolation in string literal")
						return tok
					case '{':
						depth++
					case '}':
						depth--
					case '"':
						// nested quoted string inside interpolation
						for {
							sr := lx.advance()
							if sr == -1 {
								tok := lx.token(TokenInvalid)
								lx.errorf(tok.Range, "unterminated string literal")
								return tok
							}
							if sr == '\\' {
								lx.advance()
								continue
							}
							if sr == '"' {
								break
							}
						}
					}
				}
			} else {
				lx.advance()
			}
		case '"':
			lx.advance()
			return lx.token(TokenString)
		default:
			lx.advance()
		}
	}
}

// lexHeredoc scans <<TAG ... TAG raw multi-line strings.
func (lx *lexer) lexHeredoc() Token {
	lx.advance() // <
	lx.advance() // <
	if lx.peek() == '-' {
		lx.advance() // indented heredoc marker; treated identically
	}
	tagStart := lx.pos.Byte
	for isIdentPart(lx.peek()) {
		lx.advance()
	}
	tag := lx.src[tagStart:lx.pos.Byte]
	if tag == "" {
		tok := lx.token(TokenInvalid)
		lx.errorf(tok.Range, "heredoc requires a delimiter identifier after <<")
		return tok
	}
	// Consume to end of line.
	for lx.peek() != '\n' && lx.peek() != -1 {
		lx.advance()
	}
	for {
		if lx.peek() == -1 {
			tok := lx.token(TokenInvalid)
			lx.errorf(tok.Range, "unterminated heredoc; expected closing %q", tag)
			return tok
		}
		lx.advance() // the newline
		lineStart := lx.pos.Byte
		for lx.peek() != '\n' && lx.peek() != -1 {
			lx.advance()
		}
		if strings.TrimSpace(lx.src[lineStart:lx.pos.Byte]) == tag {
			return lx.token(TokenHeredoc)
		}
	}
}
