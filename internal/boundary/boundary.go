// Package boundary implements the boundary conditions used in the paper:
// no-slip bounce-back, velocity bounce-back, and pressure anti-bounce-back
// (Ginzburg et al., link-wise formulation).
//
// The conditions integrate with the fused stream-pull kernels as a
// pre-stream sweep: for every link from a boundary cell b into a fluid
// cell x = b + e_d, the sweep writes into src(b, d) exactly the value the
// stream-pull update of x will read, so that the kernel needs no boundary
// logic at all. Walls are located halfway between the boundary and fluid
// cell centers, the standard link bounce-back placement.
package boundary

import (
	"walberla/internal/field"
	"walberla/internal/lattice"
)

// Config carries the macroscopic values imposed by the boundary conditions
// of one block.
type Config struct {
	// WallVelocity is the velocity of VelocityBounce cells (inflow or
	// moving wall). Ignored if VelocityAt is set.
	WallVelocity [3]float64
	// Density is the density imposed by PressureBounce cells; zero means
	// the reference density 1. Ignored if DensityAt is set.
	Density float64
	// VelocityAt, if non-nil, returns the wall velocity per boundary cell,
	// enabling spatially varying inflow profiles. It must be a pure
	// function of the coordinates: Apply evaluates it once per link when
	// compiling the sweep, not on every time step.
	VelocityAt func(x, y, z int) (ux, uy, uz float64)
	// DensityAt, if non-nil, returns the imposed density per boundary cell.
	// Like VelocityAt it must be a pure function of the coordinates.
	DensityAt func(x, y, z int) float64
}

// link is one boundary link: boundary cell (bx,by,bz), direction d pointing
// from the boundary cell into the adjacent fluid cell.
type link struct {
	bx, by, bz int32
	d          lattice.Direction
}

// Sweep applies the boundary conditions of one block. It precomputes the
// boundary link lists from the flag field at construction; Apply then runs
// in time proportional to the number of boundary links.
//
// On first use against a field, Apply compiles the link lists into linear
// indices of that field's storage — by-direction array positions for SoA,
// interleaved positions for AoS — so the steady-state boundary pass is a
// flat gather/scatter with no per-link coordinate arithmetic. The compiled
// form is tied to the field's shape, layout and allocation window (all
// stable across the double-buffer Swap of the time loop) and is rebuilt
// transparently if a differently shaped field is passed. Every link cell
// lies within one cell of an interior fluid cell, so the window must hold
// the fluid's bounding box grown by one.
type Sweep struct {
	stencil *lattice.Stencil
	flags   *field.FlagField
	cfg     Config

	noSlip   []link
	velocity []link
	pressure []link

	comp *compiledLinks

	// scratch holds the Q PDFs of one fluid cell for the pressure
	// condition's moment computation, allocated once so Apply stays free
	// of per-call heap allocations. Each block owns its Sweep and Apply
	// runs on one worker at a time, so a single scratch buffer suffices.
	scratch []float64
}

// compiledLinks is the link lists lowered to linear indices of one
// concrete field shape. dst is the boundary slot written, src the fluid
// slot read (the opposite direction at the neighbor across the link).
type compiledLinks struct {
	layout            field.Layout
	nx, ny, nz, ghost int
	rows              *field.Rows

	nsDst, nsSrc []int32

	vDst, vSrc []int32
	vAdd       []float64 // momentum correction, constant per link

	pDst, pSrc []int32
	pCell      []int32   // fluid cell index for the moment gather
	pC2WR      []float64 // 2 w_d rho_w, constant per link
	pCx        []float64
	pCy        []float64
	pCz        []float64
}

// NewSweep scans the flag field (including its ghost layer, where domain
// walls commonly live) and builds the link lists for all boundary cells
// adjacent to fluid cells. A first scan counts the links of each
// condition, so a second fills lists of their exact size; a block without
// links needs none.
func NewSweep(s *lattice.Stencil, flags *field.FlagField, cfg Config) *Sweep {
	bs := &Sweep{stencil: s, flags: flags, cfg: cfg}
	if bs.cfg.Density == 0 {
		bs.cfg.Density = 1.0
	}
	var n [3]int
	eachLink(s, flags, func(l link, list int) { n[list]++ })
	if n == [3]int{} {
		return bs
	}
	bs.noSlip = make([]link, 0, n[0])
	bs.velocity = make([]link, 0, n[1])
	bs.pressure = make([]link, 0, n[2])
	lists := [3]*[]link{&bs.noSlip, &bs.velocity, &bs.pressure}
	eachLink(s, flags, func(l link, list int) { *lists[list] = append(*lists[list], l) })
	return bs
}

// eachLink calls fn for every link from a boundary cell into an interior
// fluid cell, in storage order of the boundary cells and stencil order of
// the directions, with the link's list: 0 for NoSlip, 1 for
// VelocityBounce, 2 for PressureBounce.
func eachLink(s *lattice.Stencil, flags *field.FlagField, fn func(l link, list int)) {
	type dir struct{ a, cx, cy, cz, off int }
	data := flags.Data()
	_, sy, sz := flags.Strides()
	dirs := make([]dir, 0, 27)
	for a := 0; a < s.Q; a++ {
		if cx, cy, cz := s.Cx[a], s.Cy[a], s.Cz[a]; cx != 0 || cy != 0 || cz != 0 {
			dirs = append(dirs, dir{a, cx, cy, cz, cx + cy*sy + cz*sz})
		}
	}
	nx, ny, nz, g := flags.Nx, flags.Ny, flags.Nz, flags.Ghost
	for z := -g; z < nz+g; z++ {
		for y := -g; y < ny+g; y++ {
			row := flags.Index(-g, y, z)
			for k, c := range data[row : row+nx+2*g] {
				if !c.IsBoundary() {
					continue
				}
				list := 0
				switch c {
				case field.VelocityBounce:
					list = 1
				case field.PressureBounce:
					list = 2
				}
				x, i := k-g, row+k
				for _, d := range dirs {
					// Fluid neighbors are interior cells only.
					if uint(x+d.cx) < uint(nx) && uint(y+d.cy) < uint(ny) && uint(z+d.cz) < uint(nz) &&
						data[i+d.off] == field.Fluid {
						fn(link{int32(x), int32(y), int32(z), lattice.Direction(d.a)}, list)
					}
				}
			}
		}
	}
}

// Links returns the number of boundary links per condition, useful for
// reporting and testing.
func (bs *Sweep) Links() (noSlip, velocity, pressure int) {
	return len(bs.noSlip), len(bs.velocity), len(bs.pressure)
}

// compile lowers the link lists to linear indices of the given field. The
// per-cell velocity and density hooks are evaluated here — they are
// functions of the (static) geometry only, so their contribution to each
// link is a constant.
func (bs *Sweep) compile(src *field.PDFField) *compiledLinks {
	s := bs.stencil
	c := &compiledLinks{
		layout: src.Layout,
		nx:     src.Nx, ny: src.Ny, nz: src.Nz, ghost: src.Ghost,
		rows: src.Rows(),
	}
	c.nsDst = make([]int32, len(bs.noSlip))
	c.nsSrc = make([]int32, len(bs.noSlip))
	for i, l := range bs.noSlip {
		d := l.d
		fx, fy, fz := int(l.bx)+s.Cx[d], int(l.by)+s.Cy[d], int(l.bz)+s.Cz[d]
		c.nsDst[i] = int32(src.Index(int(l.bx), int(l.by), int(l.bz), d))
		c.nsSrc[i] = int32(src.Index(fx, fy, fz, s.Inv[d]))
	}
	c.vDst = make([]int32, len(bs.velocity))
	c.vSrc = make([]int32, len(bs.velocity))
	c.vAdd = make([]float64, len(bs.velocity))
	for i, l := range bs.velocity {
		d := l.d
		fx, fy, fz := int(l.bx)+s.Cx[d], int(l.by)+s.Cy[d], int(l.bz)+s.Cz[d]
		c.vDst[i] = int32(src.Index(int(l.bx), int(l.by), int(l.bz), d))
		c.vSrc[i] = int32(src.Index(fx, fy, fz, s.Inv[d]))
		var ux, uy, uz float64
		if bs.cfg.VelocityAt != nil {
			ux, uy, uz = bs.cfg.VelocityAt(int(l.bx), int(l.by), int(l.bz))
		} else {
			ux, uy, uz = bs.cfg.WallVelocity[0], bs.cfg.WallVelocity[1], bs.cfg.WallVelocity[2]
		}
		eu := float64(s.Cx[d])*ux + float64(s.Cy[d])*uy + float64(s.Cz[d])*uz
		c.vAdd[i] = 6.0 * s.W[d] * eu
	}
	c.pDst = make([]int32, len(bs.pressure))
	c.pSrc = make([]int32, len(bs.pressure))
	c.pCell = make([]int32, len(bs.pressure))
	c.pC2WR = make([]float64, len(bs.pressure))
	c.pCx = make([]float64, len(bs.pressure))
	c.pCy = make([]float64, len(bs.pressure))
	c.pCz = make([]float64, len(bs.pressure))
	for i, l := range bs.pressure {
		d := l.d
		fx, fy, fz := int(l.bx)+s.Cx[d], int(l.by)+s.Cy[d], int(l.bz)+s.Cz[d]
		c.pDst[i] = int32(src.Index(int(l.bx), int(l.by), int(l.bz), d))
		c.pSrc[i] = int32(src.Index(fx, fy, fz, s.Inv[d]))
		c.pCell[i] = int32(src.CellIndex(fx, fy, fz))
		rhoW := bs.cfg.Density
		if bs.cfg.DensityAt != nil {
			rhoW = bs.cfg.DensityAt(int(l.bx), int(l.by), int(l.bz))
		}
		c.pC2WR[i] = 2.0 * s.W[d] * rhoW
		c.pCx[i] = float64(s.Cx[d])
		c.pCy[i] = float64(s.Cy[d])
		c.pCz[i] = float64(s.Cz[d])
	}
	return c
}

// matches reports whether the compiled form addresses fields shaped like f.
func (c *compiledLinks) matches(f *field.PDFField) bool {
	return c.layout == f.Layout && c.nx == f.Nx && c.ny == f.Ny && c.nz == f.Nz && c.ghost == f.Ghost &&
		c.rows.Equal(f.Rows())
}

// Apply writes the boundary values into src so that the subsequent
// stream-pull kernel sweep realizes the boundary conditions. src must hold
// the post-collision PDFs of the previous time step.
func (bs *Sweep) Apply(src *field.PDFField) {
	s := bs.stencil
	if bs.comp == nil || !bs.comp.matches(src) {
		bs.comp = bs.compile(src)
	}
	c := bs.comp
	data := src.Data()

	// No-slip bounce-back: the population leaving the fluid cell toward
	// the wall returns unchanged into the opposite direction:
	//   src(b, d) = src(b + e_d, dbar).
	for i, dst := range c.nsDst {
		data[dst] = data[c.nsSrc[i]]
	}

	// Velocity bounce-back: bounce-back plus a momentum correction for the
	// moving wall,
	//   src(b, d) = src(b + e_d, dbar) + 6 w_d rho0 (e_d . u_w).
	for i, dst := range c.vDst {
		data[dst] = data[c.vSrc[i]] + c.vAdd[i]
	}

	// Pressure anti-bounce-back: imposes the density rho_w; the velocity
	// entering the symmetric equilibrium part is taken from the adjacent
	// fluid cell (first-order extrapolation to the wall),
	//   src(b, d) = -src(b + e_d, dbar)
	//               + 2 w_d rho_w (1 + 4.5 (e_d . u)^2 - 1.5 u^2).
	if len(c.pDst) > 0 && bs.scratch == nil {
		bs.scratch = make([]float64, s.Q)
	}
	tmp := bs.scratch
	// The moment gather is linear in the direction index for both layouts:
	// AoS interleaves directions at the cell (stride 1), SoA spaces them by
	// the per-direction array length.
	gatherStride := 1
	cellScale := s.Q
	if c.layout == field.SoA {
		gatherStride = src.AllocatedCells()
		cellScale = 1
	}
	for i, dst := range c.pDst {
		base := int(c.pCell[i]) * cellScale
		for a := 0; a < s.Q; a++ {
			tmp[a] = data[base+a*gatherStride]
		}
		_, ux, uy, uz := s.Moments(tmp)
		eu := c.pCx[i]*ux + c.pCy[i]*uy + c.pCz[i]*uz
		usq := 1.5 * (ux*ux + uy*uy + uz*uz)
		sym := c.pC2WR[i] * (1.0 + 4.5*eu*eu - usq)
		data[dst] = -data[c.pSrc[i]] + sym
	}
}

// MarkBox marks the six faces of the ghost layer of a flag field with the
// given cell types, a convenience for closed-box scenarios such as the
// lid-driven cavity. Order: W, E, S, N, B, T. Interior cells are marked
// Fluid.
func MarkBox(flags *field.FlagField, types [6]field.CellType) {
	flags.FillInterior(field.Fluid)
	g := flags.Ghost
	for z := -g; z < flags.Nz+g; z++ {
		for y := -g; y < flags.Ny+g; y++ {
			for x := -g; x < flags.Nx+g; x++ {
				interior := x >= 0 && x < flags.Nx && y >= 0 && y < flags.Ny && z >= 0 && z < flags.Nz
				if interior {
					continue
				}
				var t field.CellType
				switch {
				case x < 0:
					t = types[lattice.FaceW]
				case x >= flags.Nx:
					t = types[lattice.FaceE]
				case y < 0:
					t = types[lattice.FaceS]
				case y >= flags.Ny:
					t = types[lattice.FaceN]
				case z < 0:
					t = types[lattice.FaceB]
				default:
					t = types[lattice.FaceT]
				}
				flags.Set(x, y, z, t)
			}
		}
	}
}
