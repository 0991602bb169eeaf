package sifault

import (
	"context"
	"testing"

	"sitam/internal/soc"
)

// TestAppendPackedWordsRoundtrip packs generated patterns and unpacks
// them again via SymbolAt: the packed form must reproduce the care
// list exactly, with words in strictly ascending Idx order and value
// bits confined to the care mask.
func TestAppendPackedWordsRoundtrip(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	patterns, _, err := GenerateCtx(context.Background(), s, GenConfig{N: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range patterns {
		words := AppendPackedWords(nil, p)
		for i := 1; i < len(words); i++ {
			if words[i].Idx <= words[i-1].Idx {
				t.Fatalf("pattern %d: word idx %d after %d", pi, words[i].Idx, words[i-1].Idx)
			}
		}
		var unpacked []Care
		for _, w := range words {
			if w.Care == 0 {
				t.Fatalf("pattern %d: empty packed word at idx %d", pi, w.Idx)
			}
			if w.V0&^w.Care != 0 || w.V1&^w.Care != 0 {
				t.Fatalf("pattern %d word %d: value bits outside care mask", pi, w.Idx)
			}
			for b := uint(0); b < 64; b++ {
				if sym := w.SymbolAt(b); sym != X {
					unpacked = append(unpacked, Care{Pos: w.Idx<<6 + int32(b), Sym: sym})
				}
			}
		}
		if len(unpacked) != len(p.Care) {
			t.Fatalf("pattern %d: %d unpacked entries, want %d", pi, len(unpacked), len(p.Care))
		}
		for i := range p.Care {
			if unpacked[i] != p.Care[i] {
				t.Fatalf("pattern %d care %d: %+v, want %+v", pi, i, unpacked[i], p.Care[i])
			}
		}
	}
}

// TestAppendPackedWordsArena checks the shared-arena contract: a
// second pattern never merges into words appended by an earlier call,
// even when both cover the same word index.
func TestAppendPackedWordsArena(t *testing.T) {
	a := &Pattern{Care: []Care{{Pos: 3, Sym: 1}, {Pos: 70, Sym: 2}}}
	b := &Pattern{Care: []Care{{Pos: 5, Sym: 3}}}
	arena := AppendPackedWords(nil, a)
	na := len(arena)
	arena = AppendPackedWords(arena, b)
	if len(arena) != na+1 {
		t.Fatalf("second pattern appended %d words, want 1", len(arena)-na)
	}
	if arena[na].Idx != 0 || arena[0].Idx != 0 {
		t.Fatalf("expected both patterns to carry word 0, got idx %d and %d", arena[0].Idx, arena[na].Idx)
	}
	if arena[0].Care == arena[na].Care {
		t.Fatal("patterns merged into one word")
	}
}

// TestConflictsWithMatchesSymbolCompat checks the word-level conflict
// formula against symbol-wise comparison on all pairs of a generated
// corpus (care data only; bus conflicts are covered by the compaction
// differential tests).
func TestConflictsWithMatchesSymbolCompat(t *testing.T) {
	s := soc.MustLoadBenchmark("d695")
	patterns, _, err := GenerateCtx(context.Background(), s, GenConfig{N: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	packed := make([][]PackedWord, len(patterns))
	for i, p := range patterns {
		packed[i] = AppendPackedWords(nil, p)
	}
	conflictsPacked := func(a, b []PackedWord) bool {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i].Idx < b[j].Idx:
				i++
			case a[i].Idx > b[j].Idx:
				j++
			default:
				if a[i].ConflictsWith(b[j]) {
					return true
				}
				i++
				j++
			}
		}
		return false
	}
	careConflict := func(a, b *Pattern) bool {
		i, j := 0, 0
		for i < len(a.Care) && j < len(b.Care) {
			switch {
			case a.Care[i].Pos < b.Care[j].Pos:
				i++
			case a.Care[i].Pos > b.Care[j].Pos:
				j++
			default:
				if a.Care[i].Sym != b.Care[j].Sym {
					return true
				}
				i++
				j++
			}
		}
		return false
	}
	mismatches := 0
	for i := range patterns {
		for j := i + 1; j < len(patterns); j++ {
			got := conflictsPacked(packed[i], packed[j])
			want := careConflict(patterns[i], patterns[j])
			if got != want {
				t.Fatalf("patterns %d,%d: packed conflict = %v, symbol-wise = %v", i, j, got, want)
			}
			if got {
				mismatches++
			}
		}
	}
	if mismatches == 0 {
		t.Fatal("degenerate corpus: no conflicting pair")
	}
}
