package smpc

import "fmt"

// Shamir (t, n) secret sharing: the secret is f(0) of a random degree-t
// polynomial; node i holds f(i). Any t+1 shares reconstruct; t or fewer
// reveal nothing. MIP offers this scheme (with t < n/2, t ≥ n/3) as the
// fast honest-but-curious option.

// ShamirShare is one node's share: the evaluation point X (the 1-based
// node index) and the polynomial value Y.
type ShamirShare struct {
	X uint64
	Y Fe
}

// ShamirShareSecret splits secret into n shares with threshold t
// (reconstruction needs t+1 shares). It panics if t >= n or n == 0.
func ShamirShareSecret(secret Fe, t, n int) []ShamirShare {
	shares, _ := shamirEach(1, t, n, func(int) (Fe, error) { return secret, nil }) // cannot fail
	return shares
}

// ShamirShareVec splits every secret into n shares with threshold t; the
// result is indexed [node][element]. It panics if t >= n or n == 0.
func ShamirShareVec(secrets []Fe, t, n int) [][]ShamirShare {
	back, _ := shamirEach(len(secrets), t, n, func(j int) (Fe, error) { return secrets[j], nil }) // cannot fail
	return byNode(back, n, len(secrets))
}

// shamirEach is the Shamir vector kernel: for each of the m secrets at(j)
// it draws the t random coefficients of f(x) = secret + c1·x + … + ct·x^t
// from one stream and evaluates f at x = 1..n into a node-major array, node
// i's shares at [i·m, (i+1)·m). It stops at the first secret at fails to
// produce.
func shamirEach(m, t, n int, at func(j int) (Fe, error)) ([]ShamirShare, error) {
	if n <= 0 || t < 0 || t >= n {
		panic(fmt.Sprintf("smpc: invalid Shamir parameters t=%d n=%d", t, n))
	}
	s := getStream()
	defer putStream(s)
	coeffs := make([]Fe, t+1)
	back := make([]ShamirShare, n*m)
	for j := 0; j < m; j++ {
		v, err := at(j)
		if err != nil {
			return nil, err
		}
		coeffs[0] = v
		for k := 1; k <= t; k++ {
			coeffs[k] = s.next()
		}
		for i := 0; i < n; i++ {
			x := uint64(i + 1)
			back[i*m+j] = ShamirShare{X: x, Y: evalPoly(coeffs, Fe(x))}
		}
	}
	return back, nil
}

// evalPoly evaluates the polynomial at x by Horner's rule.
func evalPoly(coeffs []Fe, x Fe) Fe {
	acc := Fe(0)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = Add(Mul(acc, x), coeffs[i])
	}
	return acc
}

// ShamirReconstruct recovers the secret from at least t+1 shares via
// Lagrange interpolation at zero. It returns an error when too few shares
// are supplied or evaluation points repeat.
func ShamirReconstruct(shares []ShamirShare, t int) (Fe, error) {
	if len(shares) < t+1 {
		return 0, fmt.Errorf("smpc: need %d shares to reconstruct, have %d", t+1, len(shares))
	}
	pts := shares[:t+1]
	seen := map[uint64]bool{}
	for _, s := range pts {
		if seen[s.X] {
			return 0, fmt.Errorf("smpc: duplicate share for x=%d", s.X)
		}
		seen[s.X] = true
	}
	var secret Fe
	for i, si := range pts {
		num, den := Fe(1), Fe(1)
		xi := Fe(si.X)
		for j, sj := range pts {
			if i == j {
				continue
			}
			xj := Fe(sj.X)
			num = Mul(num, Neg(xj))     // (0 − xj)
			den = Mul(den, Sub(xi, xj)) // (xi − xj)
		}
		lagrange := Mul(num, Inv(den))
		secret = Add(secret, Mul(si.Y, lagrange))
	}
	return secret, nil
}

// ShamirAddShares adds two share vectors element-wise (shares of the sum);
// the linearity that makes secure aggregation cheap.
func ShamirAddShares(a, b []ShamirShare) ([]ShamirShare, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("smpc: share count mismatch %d vs %d", len(a), len(b))
	}
	out := make([]ShamirShare, len(a))
	for i := range a {
		if a[i].X != b[i].X {
			return nil, fmt.Errorf("smpc: share points differ at %d: %d vs %d", i, a[i].X, b[i].X)
		}
		out[i] = ShamirShare{X: a[i].X, Y: Add(a[i].Y, b[i].Y)}
	}
	return out, nil
}
