package rs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative identity, commutativity, distributivity over a sample.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, 1) != a {
			t.Fatalf("a*1 != a for %d", a)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity fails for %d,%d", a, b)
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("a * a⁻¹ != 1 for %d", a)
		}
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero should panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFPow(t *testing.T) {
	if gfPow(2, 0) != 1 || gfPow(0, 5) != 0 || gfPow(0, 0) != 1 {
		t.Error("edge cases wrong")
	}
	// a³ == a·a·a.
	for a := 1; a < 256; a++ {
		want := gfMul(byte(a), gfMul(byte(a), byte(a)))
		if gfPow(byte(a), 3) != want {
			t.Fatalf("pow fails for %d", a)
		}
	}
}

func TestGFExpPeriodic(t *testing.T) {
	if gfExp(0) != 1 || gfExp(255) != 1 || gfExp(-1) != gfExp(254) {
		t.Error("exp periodicity broken")
	}
}

func TestGeneratorRoots(t *testing.T) {
	// g(α^i) = 0 for i = 0..15 — the defining property.
	for i := 0; i < ParityBytes; i++ {
		if polyEval(generator, gfExp(i)) != 0 {
			t.Errorf("generator does not vanish at α^%d", i)
		}
	}
	if len(generator) != ParityBytes+1 {
		t.Errorf("generator degree = %d", len(generator)-1)
	}
}

func TestEncodeBlockRoundTripClean(t *testing.T) {
	data := []byte("hello, dense visible light world")
	enc, err := EncodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(data)+ParityBytes {
		t.Fatalf("encoded length %d", len(enc))
	}
	if !bytes.Equal(enc[:len(data)], data) {
		t.Fatal("code must be systematic")
	}
	dec, corrected, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 0 {
		t.Errorf("clean block reported %d corrections", corrected)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestEncodeBlockTooLong(t *testing.T) {
	if _, err := EncodeBlock(make([]byte, MaxDataPerBlock+1)); err != ErrBlockTooLong {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeBlockCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 200)
	rng.Read(data)
	enc, err := EncodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	for nerr := 1; nerr <= MaxCorrectableErrors; nerr++ {
		corrupted := append([]byte(nil), enc...)
		// Corrupt nerr distinct positions (spanning data and parity).
		perm := rng.Perm(len(corrupted))[:nerr]
		for _, p := range perm {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		dec, corrected, err := DecodeBlock(corrupted)
		if err != nil {
			t.Fatalf("%d errors: %v", nerr, err)
		}
		if corrected != nerr {
			t.Errorf("%d errors: reported %d corrections", nerr, corrected)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("%d errors: data corrupted", nerr)
		}
	}
}

func TestDecodeBlockRejectsTooManyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 100)
	rng.Read(data)
	enc, _ := EncodeBlock(data)

	failures := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		corrupted := append([]byte(nil), enc...)
		perm := rng.Perm(len(corrupted))[:MaxCorrectableErrors+2]
		for _, p := range perm {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		dec, _, err := DecodeBlock(corrupted)
		if err == nil && !bytes.Equal(dec, data) {
			// Miscorrection to a different codeword is possible in theory
			// but must never silently return wrong data *and* claim the
			// original. We count silent wrong answers as failures only if
			// they match no codeword — the final syndrome re-check should
			// make this impossible.
			failures++
		}
	}
	if failures > 0 {
		t.Errorf("%d/%d silent miscorrections slipped past the syndrome re-check", failures, trials)
	}
	// And at least most >t corruptions must be detected as uncorrectable.
	detected := 0
	for trial := 0; trial < trials; trial++ {
		corrupted := append([]byte(nil), enc...)
		perm := rng.Perm(len(corrupted))[:MaxCorrectableErrors+4]
		for _, p := range perm {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		if _, _, err := DecodeBlock(corrupted); err != nil {
			detected++
		}
	}
	if detected < trials*8/10 {
		t.Errorf("only %d/%d heavy corruptions detected", detected, trials)
	}
}

func TestDecodeBlockShortInput(t *testing.T) {
	if _, _, err := DecodeBlock(make([]byte, ParityBytes-1)); err == nil {
		t.Error("short block accepted")
	}
	if _, _, err := DecodeBlock(make([]byte, MaxDataPerBlock+ParityBytes+1)); err == nil {
		t.Error("overlong block accepted")
	}
}

func TestDecodeBlockDoesNotMutateInput(t *testing.T) {
	data := []byte("immutable")
	enc, _ := EncodeBlock(data)
	enc[0] ^= 0xff
	snapshot := append([]byte(nil), enc...)
	if _, _, err := DecodeBlock(enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, snapshot) {
		t.Error("DecodeBlock mutated its input")
	}
}

func TestMultiBlockEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{0, 1, 199, 200, 201, 400, 401, 1000} {
		data := make([]byte, size)
		rng.Read(data)
		enc := Encode(data)
		if len(enc) != size+Overhead(size) {
			t.Errorf("size %d: encoded %d bytes, want %d", size, len(enc), size+Overhead(size))
		}
		dec, corrected, err := Decode(enc, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if corrected != 0 || !bytes.Equal(dec, data) {
			t.Fatalf("size %d: round trip failed", size)
		}
		// Now corrupt up to t bytes in each block.
		nblocks := (size + MaxDataPerBlock - 1) / MaxDataPerBlock
		if nblocks == 0 {
			nblocks = 1
		}
		off := 0
		for b := 0; b < nblocks; b++ {
			dlen := MaxDataPerBlock
			if rem := size - b*MaxDataPerBlock; rem < dlen {
				dlen = rem
			}
			enc[off+rng.Intn(dlen+ParityBytes)] ^= 0x55
			off += dlen + ParityBytes
		}
		dec, corrected, err = Decode(enc, size)
		if err != nil {
			t.Fatalf("size %d corrupted: %v", size, err)
		}
		if corrected == 0 || !bytes.Equal(dec, data) {
			t.Fatalf("size %d: correction failed (corrected=%d)", size, corrected)
		}
	}
}

func TestDecodeLengthMismatch(t *testing.T) {
	if _, _, err := Decode(make([]byte, 10), 100); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := Decode(nil, -1); err == nil {
		t.Error("negative length accepted")
	}
}

func TestOverhead(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 16}, {1, 16}, {200, 16}, {201, 32}, {400, 32}, {401, 48},
	}
	for _, c := range cases {
		if got := Overhead(c.n); got != c.want {
			t.Errorf("Overhead(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	// Property: any payload round-trips through Encode/Decode with any
	// single corrupted byte per block.
	rng := rand.New(rand.NewSource(9))
	f := func(data []byte) bool {
		if len(data) > 1000 {
			data = data[:1000]
		}
		enc := Encode(data)
		if len(enc) > 0 {
			enc[rng.Intn(len(enc))] ^= byte(1 + rng.Intn(255))
		}
		dec, _, err := Decode(enc, len(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	data := make([]byte, 200)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBlock(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBlockClean(b *testing.B) {
	data := make([]byte, 200)
	rand.New(rand.NewSource(1)).Read(data)
	enc, _ := EncodeBlock(data)
	b.SetBytes(216)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBlock(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBlockEightErrors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 200)
	rng.Read(data)
	enc, _ := EncodeBlock(data)
	corrupted := append([]byte(nil), enc...)
	for _, p := range rng.Perm(len(corrupted))[:8] {
		corrupted[p] ^= 0xA5
	}
	b.SetBytes(216)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBlock(corrupted); err != nil {
			b.Fatal(err)
		}
	}
}

// polyEval evaluates polynomial p (coefficients high-order first) at x.
func polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = gfMul(y, x) ^ c
	}
	return y
}

// refEncodeBlock is the reference encoder the LFSR replaced: a byte-slice
// shift register walking 16 log/exp products per input byte.
func refEncodeBlock(data []byte) ([]byte, error) {
	if len(data) > MaxDataPerBlock {
		return nil, ErrBlockTooLong
	}
	rem := make([]byte, ParityBytes)
	for _, d := range data {
		factor := d ^ rem[0]
		copy(rem, rem[1:])
		rem[ParityBytes-1] = 0
		if factor != 0 {
			lf := logTable[factor]
			for j := 1; j < len(generator); j++ {
				if generator[j] != 0 {
					rem[j-1] ^= expTable[lf+logTable[generator[j]]]
				}
			}
		}
	}
	out := make([]byte, 0, len(data)+ParityBytes)
	out = append(out, data...)
	return append(out, rem...), nil
}

// refDecodeBlock is the reference decoder the LFSR replaced: 16 full-block
// polyEval syndromes, the shared Berlekamp–Massey/Chien/Forney core, and a
// full-block syndrome re-check.
func refDecodeBlock(block []byte) (data []byte, corrected int, err error) {
	if len(block) < ParityBytes {
		return nil, 0, fmt.Errorf("rs: block of %d bytes shorter than parity", len(block))
	}
	if len(block) > MaxDataPerBlock+ParityBytes {
		return nil, 0, ErrBlockTooLong
	}
	msg := append([]byte(nil), block...)
	syndromes := make([]byte, ParityBytes)
	clean := true
	for i := range syndromes {
		syndromes[i] = polyEval(msg, gfExp(i))
		if syndromes[i] != 0 {
			clean = false
		}
	}
	if clean {
		return msg[:len(msg)-ParityBytes], 0, nil
	}
	lambda := berlekampMassey(syndromes)
	numErrors := len(lambda) - 1
	if numErrors > MaxCorrectableErrors {
		return nil, 0, ErrTooManyErrors
	}
	positions := chienSearch(lambda, len(msg))
	if len(positions) != numErrors {
		return nil, 0, ErrTooManyErrors
	}
	omega := make([]byte, ParityBytes)
	for i := 0; i < ParityBytes; i++ {
		var acc byte
		for j := 0; j <= i && j < len(lambda); j++ {
			acc ^= gfMul(lambda[j], syndromes[i-j])
		}
		omega[i] = acc
	}
	lambdaPrime := make([]byte, 0, len(lambda)/2+1)
	for i := 1; i < len(lambda); i += 2 {
		lambdaPrime = append(lambdaPrime, lambda[i])
	}
	for _, pos := range positions {
		x := gfExp(len(msg) - 1 - pos)
		xInv := gfInv(x)
		num := polyEvalLow(omega, xInv)
		den := polyEvalLow(lambdaPrime, gfMul(xInv, xInv))
		if den == 0 {
			return nil, 0, ErrTooManyErrors
		}
		msg[pos] ^= gfMul(x, gfDiv(num, den))
	}
	for i := 0; i < ParityBytes; i++ {
		if polyEval(msg, gfExp(i)) != 0 {
			return nil, 0, ErrTooManyErrors
		}
	}
	return msg[:len(msg)-ParityBytes], numErrors, nil
}

// refEncode and refDecode are the reference multi-block codec, built on the
// reference block kernels with the same block layout as Encode/Decode.
func refEncode(data []byte) []byte {
	var out []byte
	for {
		n := min(len(data), MaxDataPerBlock)
		enc, err := refEncodeBlock(data[:n])
		if err != nil {
			panic(err)
		}
		out = append(out, enc...)
		if data = data[n:]; len(data) == 0 {
			return out
		}
	}
}

func refDecode(encoded []byte, dataLen int) ([]byte, int, error) {
	if len(encoded) != dataLen+Overhead(dataLen) {
		return nil, 0, fmt.Errorf("rs: encoded length %d does not match data length %d", len(encoded), dataLen)
	}
	out := make([]byte, 0, dataLen)
	total := 0
	for len(encoded) > 0 {
		dlen := min(dataLen-len(out), MaxDataPerBlock)
		data, corrected, err := refDecodeBlock(encoded[:dlen+ParityBytes])
		if err != nil {
			return nil, 0, err
		}
		out = append(out, data...)
		total += corrected
		encoded = encoded[dlen+ParityBytes:]
	}
	return out, total, nil
}

// randomReceived returns a received word for the equivalence tests: a
// codeword of a random 0–200-byte payload with 0 to t+5 byte errors, or
// (one time in eight) a block of random garbage.
func randomReceived(rng *rand.Rand) []byte {
	n := rng.Intn(MaxDataPerBlock + 1)
	if rng.Intn(8) == 0 {
		block := make([]byte, n+ParityBytes)
		rng.Read(block)
		return block
	}
	data := make([]byte, n)
	rng.Read(data)
	block, err := refEncodeBlock(data)
	if err != nil {
		panic(err)
	}
	nerr := rng.Intn(MaxCorrectableErrors + 6)
	for _, p := range rng.Perm(len(block))[:min(nerr, len(block))] {
		block[p] ^= byte(1 + rng.Intn(255))
	}
	return block
}

// checkSameDecode fails unless the decoder under test and the reference
// agree on the data, the correction count and the error class.
func checkSameDecode(t testing.TB, what string, gotData []byte, gotN int, gotErr error, wantData []byte, wantN int, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrTooManyErrors) != errors.Is(wantErr, ErrTooManyErrors) {
		t.Fatalf("%s: err = %v, reference %v", what, gotErr, wantErr)
	}
	if gotN != wantN || !bytes.Equal(gotData, wantData) {
		t.Fatalf("%s: decoded %d corrections %x, reference %d corrections %x", what, gotN, gotData, wantN, wantData)
	}
}

func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(3*MaxDataPerBlock+2))
		rng.Read(data)
		if len(data) <= MaxDataPerBlock {
			got, err := EncodeBlock(data)
			want, wantErr := refEncodeBlock(data)
			if err != nil || wantErr != nil || !bytes.Equal(got, want) {
				t.Fatalf("EncodeBlock(%d bytes) differs from the reference", len(data))
			}
		}
		if !bytes.Equal(Encode(data), refEncode(data)) {
			t.Fatalf("Encode(%d bytes) differs from the reference", len(data))
		}
	}
}

func TestDecodeMatchesReference(t *testing.T) {
	const trials = 100000
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < trials; trial++ {
		block := randomReceived(rng)
		snapshot := append([]byte(nil), block...)
		data, n, err := DecodeBlock(block)
		wantData, wantN, wantErr := refDecodeBlock(block)
		checkSameDecode(t, fmt.Sprintf("block %d (%d bytes)", trial, len(block)), data, n, err, wantData, wantN, wantErr)
		if !bytes.Equal(block, snapshot) {
			t.Fatalf("block %d: DecodeBlock mutated its input", trial)
		}
	}

	// Multi-block: a payload of up to five blocks, each block independently
	// clean, corrupted or garbage.
	for trial := 0; trial < trials/20; trial++ {
		dataLen := rng.Intn(5*MaxDataPerBlock + 1)
		data := make([]byte, dataLen)
		rng.Read(data)
		enc := Encode(data)
		for rest, done := enc, 0; len(rest) > 0; {
			dlen := min(dataLen-done, MaxDataPerBlock)
			block := rest[:dlen+ParityBytes]
			switch rng.Intn(4) {
			case 0:
				rng.Read(block)
			case 1:
				for _, p := range rng.Perm(len(block))[:rng.Intn(MaxCorrectableErrors+6)] {
					block[p] ^= byte(1 + rng.Intn(255))
				}
			}
			rest, done = rest[len(block):], done+dlen
		}
		got, n, err := Decode(enc, dataLen)
		want, wantN, wantErr := refDecode(enc, dataLen)
		checkSameDecode(t, fmt.Sprintf("payload %d (%d bytes)", trial, dataLen), got, n, err, want, wantN, wantErr)
	}
}

// FuzzDecodeBlockMatchesReference asserts the LFSR decoder agrees with the
// log/exp reference on arbitrary blocks: same data, same correction count,
// same error class.
func FuzzDecodeBlockMatchesReference(f *testing.F) {
	enc, _ := refEncodeBlock([]byte("seed data for the fuzzer"))
	f.Add(enc)
	f.Add(make([]byte, ParityBytes))
	f.Add(make([]byte, MaxDataPerBlock+ParityBytes))
	f.Fuzz(func(t *testing.T, block []byte) {
		data, n, err := DecodeBlock(block)
		wantData, wantN, wantErr := refDecodeBlock(block)
		checkSameDecode(t, "fuzz block", data, n, err, wantData, wantN, wantErr)
	})
}

// TestRemainderMatchesReference checks the sliced remainder at every data
// length a block can have, so every tail of 0–7 single-byte steps follows
// 0–25 eight-byte steps, on random, all-zero and all-0xFF data. It then
// round-trips one payload the length of a 240-TX channel report (4 header
// bytes and 8 per gain, ten blocks) through Encode and Decode.
func TestRemainderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	random := make([]byte, MaxDataPerBlock)
	rng.Read(random)
	zeros := make([]byte, MaxDataPerBlock)
	ones := bytes.Repeat([]byte{0xFF}, MaxDataPerBlock)
	for _, src := range [][]byte{random, zeros, ones} {
		for n := 0; n <= MaxDataPerBlock; n++ {
			want, err := refEncodeBlock(src[:n])
			if err != nil {
				t.Fatal(err)
			}
			if got := remainder(src[:n]); !bytes.Equal(got[:], want[n:]) {
				t.Fatalf("remainder of %d bytes (first %#x) = %x, reference %x", n, src[0], got, want[n:])
			}
		}
	}

	report := make([]byte, 4+8*240)
	rng.Read(report)
	enc := Encode(report)
	if !bytes.Equal(enc, refEncode(report)) {
		t.Fatalf("Encode(%d bytes) differs from the reference", len(report))
	}
	got, corrected, err := Decode(enc, len(report))
	if err != nil || corrected != 0 || !bytes.Equal(got, report) {
		t.Fatalf("Decode: %d corrections, err %v, payload equal %v", corrected, err, bytes.Equal(got, report))
	}
}

func TestRemainderAndEncodeIntoDoNotAllocate(t *testing.T) {
	data := make([]byte, 2093)
	rand.New(rand.NewSource(5)).Read(data)
	dst := make([]byte, len(data)+Overhead(len(data)))
	var sink [ParityBytes]byte
	if n := testing.AllocsPerRun(100, func() { sink = remainder(data[:MaxDataPerBlock]) }); n != 0 {
		t.Errorf("remainder: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { EncodeInto(dst, data) }); n != 0 {
		t.Errorf("EncodeInto: %v allocs/op, want 0", n)
	}
	_ = sink
}

func TestEncodeIntoRejectsWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EncodeInto accepted a short destination")
		}
	}()
	EncodeInto(make([]byte, 10), make([]byte, 10))
}
