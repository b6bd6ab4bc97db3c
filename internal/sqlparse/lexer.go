package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// Lexer turns SQL text into a token stream.
type Lexer struct {
	input string
	pos   int
}

// NewLexer returns a lexer over input.
func NewLexer(input string) *Lexer { return &Lexer{input: input} }

// Tokenize scans the whole input and returns the tokens followed by a
// final EOF token.
func Tokenize(input string) ([]Token, error) {
	lx := NewLexer(input)
	var toks []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Type == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peekByte() (byte, bool) {
	if lx.pos >= len(lx.input) {
		return 0, false
	}
	return lx.input[lx.pos], true
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	start := lx.pos
	c, ok := lx.peekByte()
	if !ok {
		return Token{Type: TokEOF, Pos: start}, nil
	}

	switch {
	case isIdentStart(c):
		return lx.lexWord(start), nil
	case isDigit(c) || (c == '.' && lx.pos+1 < len(lx.input) && isDigit(lx.input[lx.pos+1])):
		return lx.lexNumber(start)
	case c == '\'':
		return lx.lexString(start)
	default:
		return lx.lexSymbol(start)
	}
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.input) {
		c := lx.input[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] == '-':
			for lx.pos < len(lx.input) && lx.input[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			return
		}
	}
}

func (lx *Lexer) lexWord(start int) Token {
	for lx.pos < len(lx.input) && isIdentPart(lx.input[lx.pos]) {
		lx.pos++
	}
	text := lx.input[start:lx.pos]
	upper := strings.ToUpper(text)
	if IsKeyword(upper) {
		return Token{Type: TokKeyword, Text: upper, Pos: start}
	}
	return Token{Type: TokIdent, Text: text, Pos: start}
}

func (lx *Lexer) lexNumber(start int) (Token, error) {
	seenDot, seenExp := false, false
	for lx.pos < len(lx.input) {
		c := lx.input[lx.pos]
		switch {
		case isDigit(c):
			lx.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (c == 'e' || c == 'E') && !seenExp && lx.pos > start:
			seenExp = true
			lx.pos++
			if lx.pos < len(lx.input) && (lx.input[lx.pos] == '+' || lx.input[lx.pos] == '-') {
				lx.pos++
			}
			if lx.pos >= len(lx.input) || !isDigit(lx.input[lx.pos]) {
				return Token{}, fmt.Errorf("sqlparse: malformed exponent at offset %d", lx.pos)
			}
		default:
			goto done
		}
	}
done:
	text := lx.input[start:lx.pos]
	if lx.pos < len(lx.input) && isIdentStart(lx.input[lx.pos]) {
		return Token{}, fmt.Errorf("sqlparse: malformed number %q at offset %d", text, start)
	}
	return Token{Type: TokNumber, Text: text, Pos: start}, nil
}

// lexString scans a quoted literal. Its text is a copy, never a view of
// the input: a literal an INSERT stores must not pin the statement's text.
func (lx *Lexer) lexString(start int) (Token, error) {
	lx.pos++ // opening quote
	var sb strings.Builder
	escaped := false
	for lx.pos < len(lx.input) {
		c := lx.input[lx.pos]
		if c == '\'' {
			// '' escapes a single quote, SQL style.
			if lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] == '\'' {
				if !escaped {
					escaped = true
					sb.WriteString(lx.input[start+1 : lx.pos])
				}
				sb.WriteByte('\'')
				lx.pos += 2
				continue
			}
			lx.pos++
			if !escaped {
				return Token{Type: TokString, Text: strings.Clone(lx.input[start+1 : lx.pos-1]), Pos: start}, nil
			}
			return Token{Type: TokString, Text: sb.String(), Pos: start}, nil
		}
		if escaped {
			sb.WriteByte(c)
		}
		lx.pos++
	}
	return Token{}, fmt.Errorf("sqlparse: unterminated string starting at offset %d", start)
}

func (lx *Lexer) lexSymbol(start int) (Token, error) {
	two := ""
	if lx.pos+2 <= len(lx.input) {
		two = lx.input[lx.pos : lx.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>":
		lx.pos += 2
		if two == "<>" {
			two = "!="
		}
		return Token{Type: TokSymbol, Text: two, Pos: start}, nil
	}
	c := lx.input[lx.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '+', '-', '*', '/', ';', '.':
		lx.pos++
		return Token{Type: TokSymbol, Text: lx.input[start:lx.pos], Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, start)
}
