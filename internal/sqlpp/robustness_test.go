package sqlpp

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// corpus is a set of valid programs whose mutations must never panic the
// lexer or parser.
var corpus = []string{
	`CREATE TYPE TweetType AS OPEN { id: int64, text: string };`,
	`CREATE DATASET Tweets(TweetType) PRIMARY KEY id;`,
	`SELECT tweet.country Country, count(tweet) Num FROM Tweets tweet GROUP BY tweet.country;`,
	`CREATE FUNCTION f(t) {
		LET x = (SELECT VALUE s.a FROM S s WHERE s.k = t.k ORDER BY s.v DESC LIMIT 3)
		SELECT t.*, x
	};`,
	`INSERT INTO D ([{"id": 1, "point": [1.5, -2.5], "nested": {"a": [true, null]}}]);`,
	`SELECT VALUE CASE WHEN a = 1 THEN "x" ELSE "y" END FROM D d;`,
	`CONNECT FEED F TO DATASET D APPLY FUNCTION g;`,
	`SELECT x.a, lib#fn(x.b)[0].c FROM D x WHERE x.a IN (SELECT VALUE y.a FROM E y) AND NOT x.done;`,
}

// TestParseNeverPanicsOnPrefixes: every prefix of a valid program either
// parses or returns an error — never panics.
func TestParseNeverPanicsOnPrefixes(t *testing.T) {
	for _, src := range corpus {
		for i := 0; i <= len(src); i++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on prefix %q: %v", src[:i], r)
					}
				}()
				Parse(src[:i]) //nolint:errcheck // outcome irrelevant, only no-panic
			}()
		}
	}
}

// TestParseNeverPanicsOnMutations: random byte mutations of valid
// programs never panic.
func TestParseNeverPanicsOnMutations(t *testing.T) {
	r := rand.New(rand.NewSource(2019))
	noise := []byte(`(){}[],.;:"'#?*=<>+-x0 `)
	for _, src := range corpus {
		for trial := 0; trial < 300; trial++ {
			b := []byte(src)
			for k := 0; k < 1+r.Intn(4); k++ {
				pos := r.Intn(len(b))
				switch r.Intn(3) {
				case 0:
					b[pos] = noise[r.Intn(len(noise))]
				case 1:
					b = append(b[:pos], b[pos+1:]...)
				default:
					b = append(b[:pos], append([]byte{noise[r.Intn(len(noise))]}, b[pos:]...)...)
				}
				if len(b) == 0 {
					break
				}
			}
			mut := string(b)
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						t.Fatalf("panic on mutation %q: %v", mut, rec)
					}
				}()
				Parse(mut) //nolint:errcheck
			}()
		}
	}
}

// TestLexParseRoundTripTokens: lexing is total on printable ASCII noise.
func TestLexNoiseTotal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(60)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte(32 + r.Intn(95)))
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("lex panic on %q: %v", sb.String(), rec)
				}
			}()
			Lex(sb.String()) //nolint:errcheck
		}()
	}
}

// TestParseNestingLimit: ~2M nested parentheses (~4 MB, well under the
// wire protocol's frame limit) used to overflow the parser's stack and
// kill the process; they now return ErrNestingTooDeep. So do chains of
// NOT and unary minus, which recurse without a primary expression.
// Nesting just under the limit still parses.
func TestParseNestingLimit(t *testing.T) {
	const deep = 2_000_000 // the reproducer: ~4 MB of parentheses
	const past = 4 * MaxNestingDepth
	for name, src := range map[string]string{
		"parens":   "SELECT VALUE " + strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep) + ";",
		"unclosed": "SELECT VALUE " + strings.Repeat("(", deep),
		"arrays":   "SELECT VALUE " + strings.Repeat("[", past) + strings.Repeat("]", past) + ";",
		"subquery": strings.Repeat("SELECT VALUE (", past) + "1" + strings.Repeat(")", past) + ";",
		"exists":   strings.Repeat("SELECT VALUE x FROM D x WHERE EXISTS (", past) + "1" + strings.Repeat(")", past) + ";",
		"not":      "SELECT VALUE " + strings.Repeat("NOT ", past) + "true;",
		"minus":    "SELECT VALUE " + strings.Repeat("- ", past) + "1;",
		"calls":    "SELECT VALUE " + strings.Repeat("f(", past) + "1" + strings.Repeat(")", past) + ";",
	} {
		if _, err := Parse(src); !errors.Is(err, ErrNestingTooDeep) {
			t.Errorf("%s: err = %v, want ErrNestingTooDeep", name, err)
		}
	}
	if _, err := ParseExpr(strings.Repeat(`{"a": `, past) + "1" + strings.Repeat("}", past)); !errors.Is(err, ErrNestingTooDeep) {
		t.Errorf("ParseExpr objects: err = %v, want ErrNestingTooDeep", err)
	}

	// Each parenthesised level is one primary expression; the literal
	// inside is one more.
	ok := MaxNestingDepth - 1
	stmts, err := Parse("SELECT VALUE " + strings.Repeat("(", ok) + "1" + strings.Repeat(")", ok) + ";")
	if err != nil {
		t.Fatalf("nesting %d rejected: %v", ok, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("statements = %d", len(stmts))
	}
	if _, err := Parse("SELECT VALUE " + strings.Repeat("(", ok+1) + "1" + strings.Repeat(")", ok+1) + ";"); !errors.Is(err, ErrNestingTooDeep) {
		t.Fatalf("nesting %d accepted: %v", ok+1, err)
	}
	if _, err := Parse("SELECT VALUE " + strings.Repeat("- ", ok) + "1;"); err != nil {
		t.Fatalf("minus chain %d rejected: %v", ok, err)
	}
}
