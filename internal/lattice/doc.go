// Package lattice defines the discrete velocity sets (stencils) used by
// the lattice Boltzmann method together with the equilibrium distribution
// and macroscopic moment computations.
//
// The package follows the paper's D3Q19 model (Qian, d'Humières, Lallemand)
// as the primary stencil and additionally ships D3Q27 and D2Q9, mirroring
// waLBerla's auto-generated stencil headers. A Stencil is pure data:
// velocity vectors, lattice weights, inverse-direction table, and derived
// index sets (per-face communication directions), so that compute kernels
// can either iterate generically over any stencil or be specialized against
// the fixed D3Q19 ordering at compile time.
//
// Moments and Equilibrium are such a specialization themselves: for D3Q19
// they dispatch to unrolled sums over the nonzero velocity components, in
// the generic loop's direction order, which give the generic loop's bits
// for finite input (the argument is on Moments and equilibriumD3Q19;
// FuzzStencilD3Q19 checks it). Every caller — the generic collision
// kernel, boundary handling, block initialization, the level-interface
// rescale and the refinement criterion — takes the fast path without a
// second entry point; D3Q27 and D2Q9 keep the generic loops.
package lattice
