package lattice

// Equilibrium computes the discrete Maxwell-Boltzmann equilibrium
// distribution f_alpha^eq for density rho and velocity (ux, uy, uz) into
// feq, which must have length s.Q. It implements the standard second-order
// expansion
//
//	f_alpha^eq = w_alpha * rho * (1 + 3(e.u) + 9/2 (e.u)^2 - 3/2 u^2)
//
// in lattice units (c_s^2 = 1/3, dt = dx = 1). D3Q19 takes an unrolled
// path (equilibriumD3Q19) with the same bits for finite arguments.
func (s *Stencil) Equilibrium(feq []float64, rho, ux, uy, uz float64) {
	if len(feq) != s.Q {
		panic("lattice: Equilibrium output slice has wrong length")
	}
	if s == d3q19 {
		equilibriumD3Q19(feq, rho, ux, uy, uz)
		return
	}
	usq := 1.5 * (ux*ux + uy*uy + uz*uz)
	for a := 0; a < s.Q; a++ {
		cu := 3.0 * (float64(s.Cx[a])*ux + float64(s.Cy[a])*uy + float64(s.Cz[a])*uz)
		feq[a] = s.W[a] * rho * (1.0 + cu + 0.5*cu*cu - usq)
	}
}

// EquilibriumDir computes a single equilibrium component, bit for bit
// Equilibrium's feq[a]; it serves callers that need f^eq for a few
// directions only (boundary conditions, the level-interface rescale).
func (s *Stencil) EquilibriumDir(a Direction, rho, ux, uy, uz float64) float64 {
	usq := 1.5 * (ux*ux + uy*uy + uz*uz)
	cu := 3.0 * (float64(s.Cx[a])*ux + float64(s.Cy[a])*uy + float64(s.Cz[a])*uz)
	return s.W[a] * rho * (1.0 + cu + 0.5*cu*cu - usq)
}

// equilibriumD3Q19 is the generic equilibrium loop unrolled for D3Q19.
// Each e·u sums only the nonzero velocity components, in x, y, z order,
// and a direction pair ±e shares it negated. For finite arguments that
// changes at most the sign of a zero e·u, and 1 + cu + ½cu² − usq is the
// same for cu = +0 and −0; a non-finite argument leaves every component
// non-finite on both paths.
func equilibriumD3Q19(feq []float64, rho, ux, uy, uz float64) {
	feq = feq[:Q19]
	usq := 1.5 * (ux*ux + uy*uy + uz*uz)
	w := d3q19.W
	w0, w1, w2 := w[C]*rho, w[E]*rho, w[NE]*rho
	feq[C] = w0 * (1.0 - usq)
	feq[N], feq[S] = eqPair(w1, 3.0*uy, usq)
	feq[E], feq[W] = eqPair(w1, 3.0*ux, usq)
	feq[T], feq[B] = eqPair(w1, 3.0*uz, usq)
	feq[NE], feq[SW] = eqPair(w2, 3.0*(ux+uy), usq)
	feq[SE], feq[NW] = eqPair(w2, 3.0*(ux-uy), usq)
	feq[TN], feq[BS] = eqPair(w2, 3.0*(uy+uz), usq)
	feq[BN], feq[TS] = eqPair(w2, 3.0*(uy-uz), usq)
	feq[TE], feq[BW] = eqPair(w2, 3.0*(ux+uz), usq)
	feq[BE], feq[TW] = eqPair(w2, 3.0*(ux-uz), usq)
}

// eqPair returns the equilibria of the directions +e and −e with weight
// times density wr, given cu = 3 e·u: the generic expression at cu and at
// −cu, which IEEE negation makes exact.
func eqPair(wr, cu, usq float64) (plus, minus float64) {
	sq := 0.5 * cu * cu
	return wr * (1.0 + cu + sq - usq), wr * (1.0 - cu + sq - usq)
}

// Moments computes the macroscopic density and momentum-density from a set
// of PDFs f (length s.Q): rho = sum f_a, rho*u = sum e_a f_a. The returned
// velocity is momentum divided by density.
//
// D3Q19 takes an unrolled path that adds only the ±f_a terms of nonzero
// velocity components, in direction order, each sum starting from +0. For
// finite PDFs the result is bit-identical to the generic loop: under
// round-to-nearest an accumulator that starts at +0 never becomes −0, so
// the loop's 0·f_a terms add nothing, and ±1·f_a is exact. A non-finite
// PDF leaves rho non-finite on both paths.
func (s *Stencil) Moments(f []float64) (rho, ux, uy, uz float64) {
	if len(f) != s.Q {
		panic("lattice: Moments input slice has wrong length")
	}
	if s == d3q19 {
		return momentsD3Q19(f)
	}
	var mx, my, mz float64
	for a := 0; a < s.Q; a++ {
		fa := f[a]
		rho += fa
		mx += float64(s.Cx[a]) * fa
		my += float64(s.Cy[a]) * fa
		mz += float64(s.Cz[a]) * fa
	}
	inv := 1.0 / rho
	return rho, mx * inv, my * inv, mz * inv
}

// momentsD3Q19 is Moments unrolled for D3Q19 (see Moments).
func momentsD3Q19(f []float64) (rho, ux, uy, uz float64) {
	f = f[:Q19]
	rho = 0.0 + f[C] + f[N] + f[S] + f[W] + f[E] + f[T] + f[B] + f[NE] + f[NW] + f[SE] + f[SW] +
		f[TN] + f[TS] + f[TE] + f[TW] + f[BN] + f[BS] + f[BE] + f[BW]
	mx := 0.0 - f[W] + f[E] + f[NE] - f[NW] + f[SE] - f[SW] + f[TE] - f[TW] + f[BE] - f[BW]
	my := 0.0 + f[N] - f[S] + f[NE] + f[NW] - f[SE] - f[SW] + f[TN] - f[TS] + f[BN] - f[BS]
	mz := 0.0 + f[T] - f[B] + f[TN] + f[TS] + f[TE] + f[TW] - f[BN] - f[BS] - f[BE] - f[BW]
	inv := 1.0 / rho
	return rho, mx * inv, my * inv, mz * inv
}

// Density returns the zeroth moment of f.
func (s *Stencil) Density(f []float64) float64 {
	var rho float64
	for a := 0; a < s.Q; a++ {
		rho += f[a]
	}
	return rho
}

// BytesPerCellUpdate returns the number of bytes streamed over the memory
// interface per lattice cell update for this stencil, assuming IEEE-754
// double precision PDFs, a stream-pull update reading and writing every
// PDF, and a write-allocate cache strategy (each store first loads the
// target line). For D3Q19 this is the paper's 19 * 3 * 8 = 456 B figure.
func (s *Stencil) BytesPerCellUpdate() int {
	// read + write + write-allocate read, 8 bytes each.
	return s.Q * 3 * 8
}
