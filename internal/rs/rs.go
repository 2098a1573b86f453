package rs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// DenseVLC's frame format (Table 3) appends 16 parity bytes per payload
// block of up to 200 bytes.
const (
	// ParityBytes is the number of parity bytes per block (2t).
	ParityBytes = 16
	// MaxDataPerBlock is the largest data block one parity group covers.
	MaxDataPerBlock = 200
	// MaxCorrectableErrors is t, the byte-error correction capability.
	MaxCorrectableErrors = ParityBytes / 2
)

// Decode errors.
var (
	// ErrTooManyErrors reports an uncorrectable block.
	ErrTooManyErrors = errors.New("rs: too many errors to correct")
	// ErrBlockTooLong reports data longer than the shortened code allows.
	ErrBlockTooLong = fmt.Errorf("rs: data block exceeds %d bytes", MaxDataPerBlock)
)

// generator is the degree-16 generator polynomial
// g(x) = Π_{i=0}^{15} (x − α^i), coefficients high-order first. It is built
// in init so the GF log/antilog tables (filled by gf256.go's init) are
// ready; a package-level initializer expression would run before them.
var generator []byte

// remHi and remLo are the LFSR feedback tables of remainder, sliced eight
// ways: for a byte f at register position k (0 the highest-order),
// remHi[k][f] and remLo[k][f] pack the 16 coefficients of f·x^(23−k) mod g,
// big-endian, matching the register's two halves. remHi[7] and remLo[7]
// (f·x¹⁶ mod g, the feedback f·g₁..f·g₁₆) are the single-byte step; each
// slice k < 7 is slice k+1 advanced one byte with no input. 32 KiB in all.
var remHi, remLo [8][fieldSize]uint64

// rootMul[i][b] is b·α^i: the per-root multiply tables the dirty path
// evaluates the 16 syndromes with.
var rootMul [ParityBytes][fieldSize]byte

// The LFSR and syndrome tables derive from generator and the GF tables, so
// they are built here, right after generator. gf256.go's init has filled
// the GF tables by then (init functions run in file-name order); a table
// file sorting before gf256.go would build them all zeros.
func init() {
	generator = buildGenerator(ParityBytes)
	for f := 0; f < fieldSize; f++ {
		for j := 1; j <= 8; j++ {
			remHi[7][f] |= uint64(gfMul(byte(f), generator[j])) << (8 * (8 - j))
			remLo[7][f] |= uint64(gfMul(byte(f), generator[8+j])) << (8 * (8 - j))
		}
		for i := range rootMul {
			rootMul[i][f] = gfMul(byte(f), gfExp(i))
		}
	}
	for k := 6; k >= 0; k-- {
		for f := 0; f < fieldSize; f++ {
			hi, lo := remHi[k+1][f], remLo[k+1][f]
			top := hi >> 56
			remHi[k][f] = (hi<<8 | lo>>56) ^ remHi[7][top]
			remLo[k][f] = lo<<8 ^ remLo[7][top]
		}
	}
}

func buildGenerator(nparity int) []byte {
	g := []byte{1}
	for i := 0; i < nparity; i++ {
		// Multiply g by (x − α^i) == (x + α^i) in GF(2⁸).
		root := gfExp(i)
		next := make([]byte, len(g)+1)
		for j, c := range g {
			next[j] ^= c // x * c
			next[j+1] ^= gfMul(c, root)
		}
		g = next
	}
	return g
}

// remainder returns data·x¹⁶ mod g(x), coefficients high-order first: the
// systematic parity of data. The 16-byte shift register is two uint64s
// (hi holds the eight high-order coefficients). Eight input bytes at a
// time XOR into hi; the register then shifts by eight bytes (lo becomes
// hi) and each of the eight feedback bytes f_k adds f_k·x^(23−k) mod g, 16
// lookups that do not depend on each other. A tail of fewer than eight
// bytes takes the single-byte step: one feedback lookup per half, two
// shifts and two XORs.
//
//lint:hotpath
func remainder(data []byte) [ParityBytes]byte {
	var hi, lo uint64
	for ; len(data) >= 8; data = data[8:] {
		w := hi ^ binary.BigEndian.Uint64(data)
		hi = lo ^ remHi[0][w>>56] ^ remHi[1][byte(w>>48)] ^ remHi[2][byte(w>>40)] ^ remHi[3][byte(w>>32)] ^
			remHi[4][byte(w>>24)] ^ remHi[5][byte(w>>16)] ^ remHi[6][byte(w>>8)] ^ remHi[7][byte(w)]
		lo = remLo[0][w>>56] ^ remLo[1][byte(w>>48)] ^ remLo[2][byte(w>>40)] ^ remLo[3][byte(w>>32)] ^
			remLo[4][byte(w>>24)] ^ remLo[5][byte(w>>16)] ^ remLo[6][byte(w>>8)] ^ remLo[7][byte(w)]
	}
	for _, d := range data {
		f := d ^ byte(hi>>56)
		hi = (hi<<8 | lo>>56) ^ remHi[7][f]
		lo = lo<<8 ^ remLo[7][f]
	}
	var r [ParityBytes]byte
	binary.BigEndian.PutUint64(r[:8], hi)
	binary.BigEndian.PutUint64(r[8:], lo)
	return r
}

// EncodeBlock appends the 16 parity bytes for one data block of at most 200
// bytes, returning data‖parity. The input is not modified.
func EncodeBlock(data []byte) ([]byte, error) {
	if len(data) > MaxDataPerBlock {
		return nil, ErrBlockTooLong
	}
	return Encode(data), nil
}

// DecodeBlock corrects up to 8 byte errors in a block produced by
// EncodeBlock (data‖16 parity bytes) and returns the data portion along
// with the number of byte errors corrected. The input is not modified.
func DecodeBlock(block []byte) (data []byte, corrected int, err error) {
	if len(block) < ParityBytes {
		return nil, 0, fmt.Errorf("rs: block of %d bytes shorter than parity", len(block))
	}
	if len(block) > MaxDataPerBlock+ParityBytes {
		return nil, 0, ErrBlockTooLong
	}
	k := len(block) - ParityBytes
	rem := remainder(block[:k])
	if rem == [ParityBytes]byte(block[k:]) {
		return bytes.Clone(block[:k]), 0, nil
	}
	return correct(block, rem)
}

// correct decodes a block whose parity disagrees with rem, the remainder of
// its data portion. It works on a copy; the block is not modified.
func correct(block []byte, rem [ParityBytes]byte) (data []byte, corrected int, err error) {
	k := len(block) - ParityBytes
	// r mod g = (data·x¹⁶ mod g) + parity, since deg(parity) < 16; and
	// g(α^i) = 0 gives the syndromes S_i = r(α^i) = (r mod g)(α^i).
	for i := range rem {
		rem[i] ^= block[k+i]
	}
	syndromes := make([]byte, ParityBytes)
	for i := range syndromes {
		mul := &rootMul[i]
		var y byte
		for _, c := range rem {
			y = mul[y] ^ c
		}
		syndromes[i] = y
	}
	msg := append([]byte(nil), block...)

	// Berlekamp–Massey: find the error-locator polynomial Λ (low-order
	// first, Λ[0] = 1).
	lambda := berlekampMassey(syndromes)
	numErrors := len(lambda) - 1
	if numErrors > MaxCorrectableErrors {
		return nil, 0, ErrTooManyErrors
	}

	// Chien search over the shortened code's positions.
	positions := chienSearch(lambda, len(msg))
	if len(positions) != numErrors {
		// Locator degree disagrees with its root count: uncorrectable.
		return nil, 0, ErrTooManyErrors
	}

	// Forney: error magnitudes from the evaluator polynomial
	// Ω(x) = S(x)·Λ(x) mod x^(2t).
	omega := make([]byte, ParityBytes)
	for i := 0; i < ParityBytes; i++ {
		var acc byte
		for j := 0; j <= i && j < len(lambda); j++ {
			acc ^= gfMul(lambda[j], syndromes[i-j])
		}
		omega[i] = acc
	}
	// Λ'(x): formal derivative (odd-power terms shifted down).
	lambdaPrime := make([]byte, 0, len(lambda)/2+1)
	for i := 1; i < len(lambda); i += 2 {
		lambdaPrime = append(lambdaPrime, lambda[i])
	}

	for _, pos := range positions {
		// Error location value X = α^(n-1-pos); its inverse is the root.
		x := gfExp(len(msg) - 1 - pos)
		xInv := gfInv(x)
		num := polyEvalLow(omega, xInv)
		// Λ'(X⁻¹) evaluated over even powers: Λ' has only the shifted odd
		// coefficients, evaluated at (X⁻¹)².
		den := polyEvalLow(lambdaPrime, gfMul(xInv, xInv))
		if den == 0 {
			return nil, 0, ErrTooManyErrors
		}
		// Forney with first consecutive root b = 0 (syndromes S_i = r(α^i),
		// i ≥ 0): e = X^(1-b) · Ω(X⁻¹)/Λ'(X⁻¹) = X · Ω(X⁻¹)/Λ'(X⁻¹).
		magnitude := gfMul(x, gfDiv(num, den))
		msg[pos] ^= magnitude
	}

	// Verify: the corrected word must be a codeword, i.e. its data must
	// re-encode to its parity.
	if remainder(msg[:k]) != [ParityBytes]byte(msg[k:]) {
		return nil, 0, ErrTooManyErrors
	}
	return msg[:k], numErrors, nil
}

// berlekampMassey returns the error-locator polynomial (low-order first)
// for the given syndromes.
func berlekampMassey(syndromes []byte) []byte {
	lambda := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	var b byte = 1

	for n := 0; n < len(syndromes); n++ {
		// Discrepancy.
		var delta byte = syndromes[n]
		for i := 1; i <= l && i < len(lambda); i++ {
			delta ^= gfMul(lambda[i], syndromes[n-i])
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= n {
			// Shift register too short: lengthen it.
			tmp := append([]byte(nil), lambda...)
			coef := gfDiv(delta, b)
			lambda = polyAddShifted(lambda, prev, coef, m)
			prev = tmp
			l = n + 1 - l
			b = delta
			m = 1
		} else {
			coef := gfDiv(delta, b)
			lambda = polyAddShifted(lambda, prev, coef, m)
			m++
		}
	}
	// Trim trailing zeros so degree == len-1.
	for len(lambda) > 1 && lambda[len(lambda)-1] == 0 {
		lambda = lambda[:len(lambda)-1]
	}
	return lambda
}

// polyAddShifted returns a(x) + coef·x^shift·b(x), low-order first.
func polyAddShifted(a, b []byte, coef byte, shift int) []byte {
	size := len(a)
	if len(b)+shift > size {
		size = len(b) + shift
	}
	out := make([]byte, size)
	copy(out, a)
	for i, c := range b {
		out[i+shift] ^= gfMul(c, coef)
	}
	return out
}

// chienSearch returns the message positions (0-based from the block start)
// whose locations are roots of the error locator.
func chienSearch(lambda []byte, msgLen int) []int {
	var out []int
	for pos := 0; pos < msgLen; pos++ {
		xInv := gfExp(-(msgLen - 1 - pos))
		if polyEvalLow(lambda, xInv) == 0 {
			out = append(out, pos)
		}
	}
	return out
}

// Encode splits data into blocks of at most MaxDataPerBlock bytes and
// appends 16 parity bytes per block, implementing Table 3's
// "⌈x/200⌉ × 16 B" Reed–Solomon field. The block structure is implicit in
// the length, so Decode can invert it knowing only the payload length.
func Encode(data []byte) []byte {
	out := make([]byte, len(data)+Overhead(len(data)))
	EncodeInto(out, data)
	return out
}

// EncodeInto writes Encode(data) into dst, block by block, without
// allocating. dst must be exactly len(data)+Overhead(len(data)) bytes and
// must not overlap data.
//
//lint:hotpath
func EncodeInto(dst, data []byte) {
	if len(dst) != len(data)+Overhead(len(data)) {
		//lint:ignore apipanic length mismatch is a caller bug; callers size dst with Overhead
		panic("rs: EncodeInto: dst length is not len(data)+Overhead(len(data))")
	}
	for {
		n := min(len(data), MaxDataPerBlock)
		copy(dst, data[:n])
		rem := remainder(data[:n])
		copy(dst[n:], rem[:])
		data, dst = data[n:], dst[n+ParityBytes:]
		if len(data) == 0 {
			return // a zero-length payload still carries one parity group
		}
	}
}

// Decode reverses Encode given the original data length, correcting up to
// 8 byte errors per 216-byte block. It returns the recovered payload and
// the total number of corrected byte errors. Clean blocks are checked in
// place and copied once, straight into the result.
func Decode(encoded []byte, dataLen int) ([]byte, int, error) {
	if dataLen < 0 {
		return nil, 0, fmt.Errorf("rs: negative data length %d", dataLen)
	}
	if want := dataLen + Overhead(dataLen); len(encoded) != want {
		return nil, 0, fmt.Errorf("rs: encoded length %d does not match data length %d (want %d)", len(encoded), dataLen, want)
	}
	out := make([]byte, 0, dataLen)
	total := 0
	for b := 0; len(encoded) > 0; b++ {
		dlen := min(dataLen-len(out), MaxDataPerBlock)
		block := encoded[:dlen+ParityBytes]
		encoded = encoded[dlen+ParityBytes:]
		rem := remainder(block[:dlen])
		if rem == [ParityBytes]byte(block[dlen:]) {
			out = append(out, block[:dlen]...)
			continue
		}
		data, corrected, err := correct(block, rem)
		if err != nil {
			return nil, 0, fmt.Errorf("rs: block %d: %w", b, err)
		}
		out = append(out, data...)
		total += corrected
	}
	return out, total, nil
}

// Overhead returns the number of parity bytes Encode adds for a payload of
// the given length: ⌈len/200⌉ · 16 (minimum one block).
func Overhead(dataLen int) int {
	nblocks := (dataLen + MaxDataPerBlock - 1) / MaxDataPerBlock
	if nblocks == 0 {
		nblocks = 1
	}
	return nblocks * ParityBytes
}
