package hcl

import (
	"fmt"
	"strings"
	"testing"
)

func tokenTypes(toks []Token) []TokenType {
	out := make([]TokenType, len(toks))
	for i, t := range toks {
		out[i] = t.Type
	}
	return out
}

func lexOK(t *testing.T, src string) []Token {
	t.Helper()
	toks, diags := Lex("test.ccl", src)
	if diags.HasErrors() {
		t.Fatalf("unexpected lex errors: %s", diags.Error())
	}
	return toks
}

func TestLexSimpleAttribute(t *testing.T) {
	toks := lexOK(t, `name = "cloudless"`)
	want := []TokenType{TokenIdent, TokenAssign, TokenString, TokenEOF}
	got := tokenTypes(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
	if toks[2].Text != `"cloudless"` {
		t.Errorf("string token text = %q", toks[2].Text)
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexOK(t, `a == b != c <= d >= e && f || !g => ...`)
	want := []TokenType{
		TokenIdent, TokenEq, TokenIdent, TokenNotEq, TokenIdent,
		TokenLTE, TokenIdent, TokenGTE, TokenIdent, TokenAnd, TokenIdent,
		TokenOr, TokenBang, TokenIdent, TokenArrow, TokenEllipsis, TokenEOF,
	}
	got := tokenTypes(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLexNewlinesSignificant(t *testing.T) {
	toks := lexOK(t, "a = 1\nb = 2\n")
	var newlines int
	for _, tok := range toks {
		if tok.Type == TokenNewline {
			newlines++
		}
	}
	if newlines != 2 {
		t.Errorf("got %d newline tokens, want 2", newlines)
	}
}

func TestLexNewlinesInsignificantInBrackets(t *testing.T) {
	toks := lexOK(t, "a = [1,\n2,\n3]")
	for _, tok := range toks {
		if tok.Type == TokenNewline {
			t.Errorf("unexpected newline token inside brackets at %s", tok.Range)
		}
	}
}

func TestLexBlankLinesCollapse(t *testing.T) {
	toks := lexOK(t, "a = 1\n\n\n\nb = 2")
	var newlines int
	for _, tok := range toks {
		if tok.Type == TokenNewline {
			newlines++
		}
	}
	if newlines != 1 {
		t.Errorf("got %d newline tokens, want 1 (blank lines collapse)", newlines)
	}
}

func TestLexComments(t *testing.T) {
	src := "# hash comment\n// slash comment\n/* block\ncomment */ a = 1"
	toks := lexOK(t, src)
	var idents int
	for _, tok := range toks {
		if tok.Type == TokenIdent {
			idents++
		}
	}
	if idents != 1 {
		t.Errorf("got %d idents, want 1; tokens: %v", idents, tokenTypes(toks))
	}
}

func TestLexUnterminatedBlockComment(t *testing.T) {
	_, diags := Lex("t.ccl", "/* never closed")
	if !diags.HasErrors() {
		t.Fatal("expected error for unterminated block comment")
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct{ src, want string }{
		{"42", "42"},
		{"3.14", "3.14"},
		{"1e9", "1e9"},
		{"2.5e-3", "2.5e-3"},
	}
	for _, c := range cases {
		toks := lexOK(t, c.src)
		if toks[0].Type != TokenNumber || toks[0].Text != c.want {
			t.Errorf("lex %q: got %v %q", c.src, toks[0].Type, toks[0].Text)
		}
	}
}

func TestLexNumberDotTraversal(t *testing.T) {
	// "a[0].id" style: after a number token, ".id" must not be absorbed.
	toks := lexOK(t, "x.0.id")
	want := []TokenType{TokenIdent, TokenDot, TokenNumber, TokenDot, TokenIdent, TokenEOF}
	got := tokenTypes(toks)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestLexStringWithInterpolation(t *testing.T) {
	toks := lexOK(t, `x = "prefix-${var.name}-suffix"`)
	if toks[2].Type != TokenString {
		t.Fatalf("got %s", toks[2].Type)
	}
	if toks[2].Text != `"prefix-${var.name}-suffix"` {
		t.Errorf("interpolation not kept inside token: %q", toks[2].Text)
	}
}

func TestLexStringWithNestedBracesInInterpolation(t *testing.T) {
	toks := lexOK(t, `x = "${ { a = "b}" } }"`)
	if toks[2].Type != TokenString {
		t.Fatalf("nested interpolation mis-lexed: %v", tokenTypes(toks))
	}
}

func TestLexUnterminatedString(t *testing.T) {
	_, diags := Lex("t.ccl", `x = "never closed`)
	if !diags.HasErrors() {
		t.Fatal("expected error for unterminated string")
	}
}

func TestLexHeredoc(t *testing.T) {
	src := "x = <<EOT\nline one\nline two\nEOT\n"
	toks := lexOK(t, src)
	if toks[2].Type != TokenHeredoc {
		t.Fatalf("got %s, want heredoc; tokens %v", toks[2].Type, tokenTypes(toks))
	}
}

func TestLexUnterminatedHeredoc(t *testing.T) {
	_, diags := Lex("t.ccl", "x = <<EOT\nbody only")
	if !diags.HasErrors() {
		t.Fatal("expected error for unterminated heredoc")
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexOK(t, "a = 1\nbb = 22")
	// Token "bb" starts at line 2, column 1.
	var bb Token
	for _, tok := range toks {
		if tok.Text == "bb" {
			bb = tok
		}
	}
	if bb.Range.Start.Line != 2 || bb.Range.Start.Column != 1 {
		t.Errorf("bb position = %v, want 2:1", bb.Range.Start)
	}
	if bb.Range.End.Column != 3 {
		t.Errorf("bb end column = %d, want 3", bb.Range.End.Column)
	}
}

func TestLexInvalidCharacter(t *testing.T) {
	_, diags := Lex("t.ccl", "a = @")
	if !diags.HasErrors() {
		t.Fatal("expected error for invalid character")
	}
}

func TestLexIdentWithDashesAndDigits(t *testing.T) {
	toks := lexOK(t, "us-east-1a")
	if toks[0].Type != TokenIdent || toks[0].Text != "us-east-1a" {
		t.Errorf("got %v %q", toks[0].Type, toks[0].Text)
	}
}

// TestLexAllocatesTokensOnce: a large configuration lexes into a token slice
// sized once from the source, not one that append grows (and copies) dozens
// of times.
func TestLexAllocatesTokensOnce(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "resource \"aws_virtual_machine\" \"r%d\" {\n  name      = \"r-vm-%d\"\n"+
			"  subnet_id = aws_subnet.s%d.id\n  tags      = [\"web\", \"tier-%d\"]\n}\n\n", i, i, i%7, i%3)
	}
	src := b.String()
	toks := lexOK(t, src)
	if allocs := testing.AllocsPerRun(5, func() { Lex("big.ccl", src) }); allocs > 2 {
		t.Errorf("Lex of %d bytes (%d tokens): %.0f allocations, want at most 2", len(src), len(toks), allocs)
	}
}
