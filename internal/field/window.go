package field

// Window is a half-open box [Lo, Hi) of cell coordinates, interior-relative
// like every field coordinate (ghost cells are negative or beyond N): the
// bounding box of the cells a PDFField stores; a window with Hi[d] <= Lo[d]
// on any axis holds no cell.
type Window struct {
	Lo, Hi [3]int
}

// FullWindow is the window of a whole block: the interior plus its ghost
// layers.
func FullWindow(nx, ny, nz, ghost int) Window {
	return Window{
		Lo: [3]int{-ghost, -ghost, -ghost},
		Hi: [3]int{nx + ghost, ny + ghost, nz + ghost},
	}
}

// Empty reports whether the window holds no cell.
func (w Window) Empty() bool {
	return w.Hi[0] <= w.Lo[0] || w.Hi[1] <= w.Lo[1] || w.Hi[2] <= w.Lo[2]
}

// Cells returns the number of cells in the window.
func (w Window) Cells() int {
	if w.Empty() {
		return 0
	}
	return (w.Hi[0] - w.Lo[0]) * (w.Hi[1] - w.Lo[1]) * (w.Hi[2] - w.Lo[2])
}

// Covers reports whether every cell of o lies in w.
func (w Window) Covers(o Window) bool {
	if o.Empty() {
		return true
	}
	for d := 0; d < 3; d++ {
		if o.Lo[d] < w.Lo[d] || o.Hi[d] > w.Hi[d] {
			return false
		}
	}
	return true
}

// Intersect returns the cells w and o share; where they share none the
// result is empty with Hi[d] == Lo[d] on the axes that do not overlap, so
// that loops over it run zero times and extents come out non-negative.
func (w Window) Intersect(o Window) Window {
	for d := 0; d < 3; d++ {
		w.Lo[d] = max(w.Lo[d], o.Lo[d])
		w.Hi[d] = max(min(w.Hi[d], o.Hi[d]), w.Lo[d])
	}
	return w
}
