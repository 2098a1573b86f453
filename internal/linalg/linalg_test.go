package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Errorf("matrix = %+v", m)
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set failed")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows accepted")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Error("empty FromRows")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 0) != 3 || tr.At(0, 1) != 4 {
		t.Errorf("transpose = %+v", tr)
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v", i, j, c.At(i, j))
			}
		}
	}
	if _, err := Mul(a, New(3, 3)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	y := make([]float64, 2)
	if err := m.MulVecInto(y, []float64{1, 1}); err != nil || y[0] != 3 || y[1] != 7 {
		t.Errorf("y = %v err = %v", y, err)
	}
	if err := m.MulVecInto(y, []float64{1}); err == nil {
		t.Error("bad vector accepted")
	}
	if err := m.MulVecInto(y[:1], []float64{1, 1}); err == nil {
		t.Error("bad output length accepted")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almost(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a, _ := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 3, 1e-12) || !almost(x[1], 2, 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("err = %v", err)
	}
	if _, err := Solve(New(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := Solve(New(2, 2), []float64{1}); err == nil {
		t.Error("bad rhs accepted")
	}
}

func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		n := 1 + rng.Intn(6)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return true // singular draws are legitimate
		}
		// Residual check: A·x ≈ b.
		ax := make([]float64, n)
		if err := a.MulVecInto(ax, x); err != nil {
			return false
		}
		for i := range b {
			if !almost(ax[i], b[i], 1e-8*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInverse(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := Mul(a, inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almost(prod.At(i, j), want, 1e-12) {
				t.Errorf("A·A⁻¹[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
	if _, err := Inverse(New(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
	sing, _ := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Inverse(sing); err == nil {
		t.Error("singular accepted")
	}
}

func TestPseudoInverseRightInverse(t *testing.T) {
	// Wide full-rank matrix: A·A⁺ = I.
	a, _ := FromRows([][]float64{
		{1, 0, 2, -1},
		{0, 3, 1, 4},
	})
	pinv, err := PseudoInverse(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pinv.Rows != 4 || pinv.Cols != 2 {
		t.Fatalf("pinv dims %dx%d", pinv.Rows, pinv.Cols)
	}
	prod, _ := Mul(a, pinv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almost(prod.At(i, j), want, 1e-10) {
				t.Errorf("A·A⁺[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestPseudoInverseRidge(t *testing.T) {
	// Rank-deficient rows: pure ZF fails, ridge succeeds.
	a, _ := FromRows([][]float64{
		{1, 2, 3},
		{2, 4, 6},
	})
	if _, err := PseudoInverse(a, 0); err == nil {
		t.Error("rank-deficient ZF should fail")
	}
	pinv, err := PseudoInverse(a, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if pinv == nil {
		t.Fatal("nil ridge inverse")
	}
	// Tall input rejected.
	if _, err := PseudoInverse(New(3, 2), 0); err == nil {
		t.Error("tall matrix accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(1, 1)
	c := a.Clone()
	c.Set(0, 0, 5)
	if a.At(0, 0) == 5 {
		t.Error("clone shares storage")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dims should panic")
		}
	}()
	New(-1, 2)
}
