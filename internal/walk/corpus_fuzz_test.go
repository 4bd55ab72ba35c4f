package walk

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzLoadCorpus feeds arbitrary bytes to the walk-file decoder behind
// v2v.LoadWalks: it must not panic, every token it accepts must be a
// vertex index an int32 holds, and an accepted corpus must Save and
// load back to the same tokens and walk boundaries.
func FuzzLoadCorpus(f *testing.F) {
	f.Add([]byte("0 1\n4294967296 2147483648 1\n"))
	f.Add([]byte("0 1\n2147483647 1\n"))
	f.Add([]byte("# corpus: 2 walks, 5 tokens\n0 1 2\n\n 3  4 \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCorpus(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, tok := range c.Tokens {
			if tok < 0 {
				t.Fatalf("token %d = %d accepted", i, tok)
			}
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCorpus(&buf)
		if err != nil {
			t.Fatalf("reloading a saved corpus: %v", err)
		}
		if !slices.Equal(back.Tokens, c.Tokens) || !slices.Equal(back.Offsets, c.Offsets) {
			t.Fatalf("round trip changed the corpus: %v/%v -> %v/%v", c.Tokens, c.Offsets, back.Tokens, back.Offsets)
		}
	})
}
