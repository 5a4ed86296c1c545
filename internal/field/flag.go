package field

import "fmt"

// CellType classifies a lattice cell for the sparse kernels and the
// boundary handling. The zero value is Outside: a cell that belongs to
// neither the fluid domain nor its boundary hull (the "superfluous" cells
// of partially covered blocks in the paper).
type CellType uint8

const (
	// Outside marks cells beyond the domain and its boundary hull; the
	// sparse kernels skip them entirely.
	Outside CellType = iota
	// Fluid marks interior cells updated by the stream-collide kernel.
	Fluid
	// NoSlip marks solid wall cells treated with bounce-back.
	NoSlip
	// VelocityBounce marks inflow cells with a prescribed velocity
	// (velocity bounce-back).
	VelocityBounce
	// PressureBounce marks outflow cells with a prescribed density
	// (pressure anti-bounce-back).
	PressureBounce
	numCellTypes
)

func (c CellType) String() string {
	switch c {
	case Outside:
		return "Outside"
	case Fluid:
		return "Fluid"
	case NoSlip:
		return "NoSlip"
	case VelocityBounce:
		return "VelocityBounce"
	case PressureBounce:
		return "PressureBounce"
	}
	return fmt.Sprintf("CellType(%d)", uint8(c))
}

// IsBoundary reports whether the cell type is one of the boundary
// conditions (anything that is neither Fluid nor Outside).
func (c CellType) IsBoundary() bool {
	return c == NoSlip || c == VelocityBounce || c == PressureBounce
}

// FlagField stores one CellType per cell on the same ghost-extended grid as
// a PDFField.
type FlagField struct {
	Nx, Ny, Nz int
	Ghost      int
	ax, ay, az int
	data       []CellType
}

// NewFlagField allocates a flag field; all cells start as Outside.
func NewFlagField(nx, ny, nz, ghost int) *FlagField {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("field: invalid extents %dx%dx%d", nx, ny, nz))
	}
	ax, ay, az := nx+2*ghost, ny+2*ghost, nz+2*ghost
	return &FlagField{
		Nx: nx, Ny: ny, Nz: nz, Ghost: ghost,
		ax: ax, ay: ay, az: az,
		data: make([]CellType, ax*ay*az),
	}
}

// Index converts coordinates (ghost range allowed) to a linear index.
func (f *FlagField) Index(x, y, z int) int {
	return ((z+f.Ghost)*f.ay+(y+f.Ghost))*f.ax + (x + f.Ghost)
}

// Get returns the type of cell (x,y,z).
func (f *FlagField) Get(x, y, z int) CellType { return f.data[f.Index(x, y, z)] }

// Set stores the type of cell (x,y,z).
func (f *FlagField) Set(x, y, z int, c CellType) { f.data[f.Index(x, y, z)] = c }

// Fill sets every cell, including ghosts, to the given type.
func (f *FlagField) Fill(c CellType) {
	for i := range f.data {
		f.data[i] = c
	}
}

// FillInterior sets all interior cells to the given type, leaving ghosts
// untouched.
func (f *FlagField) FillInterior(c CellType) {
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			for x := 0; x < f.Nx; x++ {
				f.Set(x, y, z, c)
			}
		}
	}
}

// Count returns the number of interior cells of the given type.
func (f *FlagField) Count(c CellType) int {
	n := 0
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			for x := 0; x < f.Nx; x++ {
				if f.Get(x, y, z) == c {
					n++
				}
			}
		}
	}
	return n
}

// Bounds returns the bounding box of the interior cells of the given type,
// the empty zero Window when there is none.
func (f *FlagField) Bounds(c CellType) Window {
	w := Window{Lo: [3]int{f.Nx, f.Ny, f.Nz}}
	for z := 0; z < f.Nz; z++ {
		for y := 0; y < f.Ny; y++ {
			for x := 0; x < f.Nx; x++ {
				if f.Get(x, y, z) != c {
					continue
				}
				w.Lo = [3]int{min(w.Lo[0], x), min(w.Lo[1], y), min(w.Lo[2], z)}
				w.Hi = [3]int{max(w.Hi[0], x+1), max(w.Hi[1], y+1), max(w.Hi[2], z+1)}
			}
		}
	}
	if w.Empty() {
		return Window{}
	}
	return w
}

// FluidFraction returns the fraction of interior cells marked Fluid; this
// is the per-block workload measure used for load balancing and the
// quantity plotted in the paper's Figure 7.
func (f *FlagField) FluidFraction() float64 {
	return float64(f.Count(Fluid)) / float64(f.Nx*f.Ny*f.Nz)
}

// Data exposes the raw flag storage (including ghost cells).
func (f *FlagField) Data() []CellType { return f.data }

// Strides returns the linear-index increments for steps in x, y, z.
func (f *FlagField) Strides() (sx, sy, sz int) { return 1, f.ax, f.ax * f.ay }
