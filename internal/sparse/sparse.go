// Package sparse implements the linear-algebra kernel of the SPICE engine:
// a row-sparse matrix with in-place Gaussian elimination tuned for the
// diagonally dominant nodal matrices that RC ladders with embedded
// transistors produce, plus a dense LUP solver used as the gold standard
// for small systems and in tests.
//
// The sparse elimination keeps per-column occupancy lists and uses a dense
// scratch accumulator per pivot row (Gilbert–Peierls style scatter/gather),
// so a bit-line ladder of thousands of nodes factors in near-linear time.
// Pivoting is diagonal-only: the engine guarantees strictly positive
// diagonals (gmin, source series conductances), which is the standard
// SPICE contract; a vanishing pivot is reported as a structural error.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one nonzero within a row.
type Entry struct {
	Col int
	Val float64
}

// Matrix is a square row-sparse matrix.
type Matrix struct {
	N    int
	Rows [][]Entry
}

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	row := m.Rows[i]
	k := sort.Search(len(row), func(k int) bool { return row[k].Col >= j })
	if k < len(row) && row[k].Col == j {
		row[k].Val += v
		return
	}
	row = append(row, Entry{})
	copy(row[k+1:], row[k:])
	row[k] = Entry{Col: j, Val: v}
	m.Rows[i] = row
}

// Reuse resets m to an n×n zero matrix while retaining the row storage
// already allocated, so a hot loop can re-stamp a same-size (or smaller)
// system without going back to the allocator.
func (m *Matrix) Reuse(n int) {
	if cap(m.Rows) >= n {
		m.Rows = m.Rows[:n]
	} else {
		old := m.Rows
		m.Rows = make([][]Entry, n)
		copy(m.Rows, old)
	}
	for i := range m.Rows {
		m.Rows[i] = m.Rows[i][:0]
	}
	m.N = n
}

// CopyFrom overwrites m with the contents of src, reusing m's row storage,
// for matrices that are refilled every iteration (the SPICE engine's
// Newton work matrix).
func (m *Matrix) CopyFrom(src *Matrix) {
	m.Reuse(src.N)
	for i, r := range src.Rows {
		m.Rows[i] = append(m.Rows[i], r...)
	}
}

// Solver carries the factorization scratch of the sparse elimination —
// the column occupancy lists, the dense scatter accumulator and the
// solution vector — so a hot loop (the SPICE engine's Newton iterations)
// can solve many same-size systems without reallocating any of it. Reused
// scratch never changes the arithmetic, so solutions are bit-for-bit the
// same as a fresh Solver's for the same inputs.
//
// The zero Solver is ready for use. A Solver is not safe for concurrent
// use.
type Solver struct {
	cols    [][]int
	x       []float64
	mark    []bool
	touched []int
	sol     []float64
}

// reset sizes the scratch for an n-unknown solve. The scatter accumulator
// and marks are cleared defensively; the occupancy lists are truncated and
// re-seeded by the caller.
func (s *Solver) reset(n int) {
	if cap(s.cols) >= n {
		s.cols = s.cols[:n]
	} else {
		s.cols = make([][]int, n)
	}
	for i := range s.cols {
		s.cols[i] = s.cols[i][:0]
	}
	if cap(s.x) >= n {
		s.x = s.x[:n]
	} else {
		s.x = make([]float64, n)
	}
	clear(s.x)
	if cap(s.mark) >= n {
		s.mark = s.mark[:n]
	} else {
		s.mark = make([]bool, n)
	}
	clear(s.mark)
	if cap(s.sol) >= n {
		s.sol = s.sol[:n]
	} else {
		s.sol = make([]float64, n)
	}
	s.touched = s.touched[:0]
}

// Solve performs in-place Gaussian elimination on m and right-hand side b,
// returning the solution. The matrix is destroyed. The returned slice
// aliases the solver's scratch and is only valid until the next Solve call
// on this solver.
func (s *Solver) Solve(m *Matrix, b []float64) ([]float64, error) {
	n := m.N
	if len(b) != n {
		return nil, fmt.Errorf("sparse: rhs length %d != n %d", len(b), n)
	}
	s.reset(n)
	// Column occupancy: rows (strictly below the diagonal during the
	// sweep) holding a nonzero in each column. Seeded from the initial
	// pattern, extended on fill-in. Entries may be stale (already
	// eliminated); they are filtered when visited.
	cols := s.cols
	for i, row := range m.Rows {
		for _, e := range row {
			if e.Col < i {
				cols[e.Col] = append(cols[e.Col], i)
			}
		}
	}
	// Dense scratch accumulator for row updates.
	x := s.x
	mark := s.mark
	for k := 0; k < n; k++ {
		rowK := m.Rows[k]
		// Locate the pivot.
		pk := sort.Search(len(rowK), func(t int) bool { return rowK[t].Col >= k })
		if pk >= len(rowK) || rowK[pk].Col != k || rowK[pk].Val == 0 {
			return nil, fmt.Errorf("sparse: zero pivot at row %d", k)
		}
		piv := rowK[pk].Val
		var maxAbs float64
		for _, e := range rowK {
			if a := math.Abs(e.Val); a > maxAbs {
				maxAbs = a
			}
		}
		if math.Abs(piv) < 1e-14*maxAbs {
			return nil, fmt.Errorf("sparse: pivot %g at row %d below threshold (row max %g)", piv, k, maxAbs)
		}
		for _, i := range cols[k] {
			if i <= k {
				continue
			}
			rowI := m.Rows[i]
			ti := sort.Search(len(rowI), func(t int) bool { return rowI[t].Col >= k })
			if ti >= len(rowI) || rowI[ti].Col != k || rowI[ti].Val == 0 {
				continue // stale occupancy entry
			}
			factor := rowI[ti].Val / piv
			// Scatter row i (columns ≥ k only; below-k already done).
			touched := s.touched[:0]
			for _, e := range rowI[ti:] {
				x[e.Col] = e.Val
				mark[e.Col] = true
				touched = append(touched, e.Col)
			}
			// Subtract factor × row k (columns ≥ k).
			for _, e := range rowK[pk:] {
				if !mark[e.Col] {
					mark[e.Col] = true
					touched = append(touched, e.Col)
					x[e.Col] = 0
					if e.Col > k && i > e.Col {
						// fill-in below the diagonal in column e.Col; fill
						// above it needs no occupancy
						cols[e.Col] = append(cols[e.Col], i)
					}
				}
				x[e.Col] -= factor * e.Val
			}
			b[i] -= factor * b[k]
			// Gather back: keep columns > k (column k is eliminated).
			sort.Ints(touched)
			newRow := rowI[:ti]
			for _, c := range touched {
				if c > k && x[c] != 0 {
					newRow = append(newRow, Entry{Col: c, Val: x[c]})
				}
				mark[c] = false
				x[c] = 0
			}
			m.Rows[i] = newRow
			s.touched = touched[:0]
		}
	}
	// Back substitution.
	sol := s.sol
	for i := n - 1; i >= 0; i-- {
		row := m.Rows[i]
		acc := b[i]
		var diag float64
		for _, e := range row {
			switch {
			case e.Col == i:
				diag = e.Val
			case e.Col > i:
				acc -= e.Val * sol[e.Col]
			}
		}
		if diag == 0 {
			return nil, fmt.Errorf("sparse: zero diagonal at back-substitution row %d", i)
		}
		sol[i] = acc / diag
	}
	return sol, nil
}

// DenseSolve solves A·x = b by LU with partial pivoting, used as the gold
// standard in tests and for small systems. A and b are destroyed.
func DenseSolve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("dense: bad dimensions")
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
				p = i
			}
		}
		if a[p][k] == 0 {
			return nil, fmt.Errorf("dense: singular at column %d", k)
		}
		if p != k {
			a[p], a[k] = a[k], a[p]
			b[p], b[k] = b[k], b[p]
		}
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			if f == 0 {
				continue
			}
			a[i][k] = 0
			for j := k + 1; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
			b[i] -= f * b[k]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, nil
}
