package congest

import "fmt"

// WordBits is the simulator's word width. The CONGEST model transmits
// Θ(log n)-bit words; the engines realize a word as one int64, so a single
// message legally carries up to WordBits payload bits and anything larger
// must be split across ceil(bits/WordBits) words — see WordsFor. The
// wordtrunc analyzer (internal/lint) keeps call sites honest: payloads may
// not be silently truncated to fit.
const WordBits = 64

// WordsFor returns the number of words a payload of the given bit width
// occupies on an edge: ceil(bits/WordBits), the multi-word charge rule.
// Algorithms sending richer payloads charge one round per word per edge.
//
//distlint:allow testonly the multi-word charge rule that wordtrunc's findings and DESIGN §5 tell payload authors to charge
func WordsFor(bits int) int {
	if bits <= 0 {
		return 0
	}
	return (bits + WordBits - 1) / WordBits
}

// PackWord packs two non-negative fields into a single word, lo occupying
// the low loBits bits and hi the bits above it (the sign bit stays clear,
// so packed words order like the (hi, lo) tuple — min-aggregations
// tie-break correctly). Packing is checked: a field that overflows its
// width panics instead of silently truncating, because a truncated payload
// is a corrupted message the model was never charged for. Both fields
// together occupy at most WordBits-1 < WordBits bits, so the packed
// payload is one honestly-charged word (WordsFor(WordBits-1) == 1).
func PackWord(hi, lo Word, loBits uint) Word {
	if loBits == 0 || loBits >= WordBits-1 {
		panic(fmt.Sprintf("congest: PackWord loBits %d outside (0, %d)", loBits, WordBits-1))
	}
	if lo < 0 || lo >= 1<<loBits {
		panic(fmt.Sprintf("congest: PackWord lo field %d overflows %d bits", lo, loBits))
	}
	hiBits := WordBits - 1 - loBits
	if hi < 0 || hi >= 1<<hiBits {
		panic(fmt.Sprintf("congest: PackWord hi field %d overflows %d bits", hi, hiBits))
	}
	return hi<<loBits | lo
}

// UnpackWord splits a word packed by PackWord back into its fields.
func UnpackWord(x Word, loBits uint) (hi, lo Word) {
	return x >> loBits, x & (1<<loBits - 1)
}
