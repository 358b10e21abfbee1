package bench

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"startvoyager/internal/node"
)

// FuzzParseNodeList: no -nodes value panics the parser, every list it
// accepts holds only supported machine sizes, and the list joined back with
// commas parses to the same list.
func FuzzParseNodeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseNodeList(s)
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatalf("%q parses to an empty list", s)
		}
		parts := make([]string, len(got))
		for i, v := range got {
			if v < 2 || v > node.MaxNodes {
				t.Fatalf("%q parses to %v, which holds the unsupported size %d", s, got, v)
			}
			parts[i] = strconv.Itoa(v)
		}
		joined := strings.Join(parts, ",")
		again, err := ParseNodeList(joined)
		if err != nil {
			t.Fatalf("%q parses to %v, whose join %q does not parse: %v", s, got, joined, err)
		}
		if !slices.Equal(again, got) {
			t.Fatalf("%q parses to %v, whose join %q parses to %v", s, got, joined, again)
		}
	})
}
