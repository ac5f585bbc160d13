package twod

import (
	"fmt"
	"sort"
	"strings"
)

// Layout tracks cell occupancy of a WH×HH device using the
// maximal-rectangles method: the free space is represented as the set of
// all maximal free rectangles (rectangles not contained in any larger
// free rectangle). Placement picks one per the heuristic; removal
// rebuilds the free set from the remaining placements (simple and
// correct; resident counts are small).
type Layout struct {
	w, h   int
	placed map[int64]Rect
	free   []Rect
}

// NewLayout returns an empty layout for a w×h device.
func NewLayout(w, h int) *Layout {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	l := &Layout{w: w, h: h, placed: make(map[int64]Rect)}
	l.rebuildFree()
	return l
}

// Width and Height return the device dimensions.
func (l *Layout) Width() int { return l.w }

// Height returns the device height.
func (l *Layout) Height() int { return l.h }

// TotalArea returns w·h.
func (l *Layout) TotalArea() int { return l.w * l.h }

// Resident returns the number of placed rectangles.
func (l *Layout) Resident() int { return len(l.placed) }

// OccupiedArea returns the number of occupied cells.
func (l *Layout) OccupiedArea() int {
	sum := 0
	for _, r := range l.placed {
		sum += r.Area()
	}
	return sum
}

// FreeArea returns the number of free cells.
func (l *Layout) FreeArea() int { return l.TotalArea() - l.OccupiedArea() }

// RectOf returns the rectangle occupied by id, if placed.
func (l *Layout) RectOf(id int64) (Rect, bool) {
	r, ok := l.placed[id]
	return r, ok
}

// LargestFreeRect returns the area of the largest free rectangle.
func (l *Layout) LargestFreeRect() int {
	m := 0
	for _, f := range l.free {
		if f.Area() > m {
			m = f.Area()
		}
	}
	return m
}

// ExternalFragmentation returns 1 − largestFreeRect/freeArea (0 when no
// free space).
func (l *Layout) ExternalFragmentation() float64 {
	free := l.FreeArea()
	if free == 0 {
		return 0
	}
	return 1 - float64(l.LargestFreeRect())/float64(free)
}

// CanPlace reports whether a w×h rectangle fits somewhere.
func (l *Layout) CanPlace(w, h int) bool {
	if w <= 0 || h <= 0 {
		return false
	}
	for _, f := range l.free {
		if f.W >= w && f.H >= h {
			return true
		}
	}
	return false
}

// Place allocates a w×h rectangle for id using the heuristic: Fit,
// then Commit.
func (l *Layout) Place(id int64, w, h int, heur Heuristic) (Rect, bool) {
	if _, dup := l.placed[id]; dup {
		return Rect{}, false
	}
	r, ok := l.Fit(w, h, heur)
	if ok {
		l.Commit(id, r)
	}
	return r, ok
}

// Fit picks the rectangle a w×h placement would take under the
// heuristic without placing it; ok is false when no free region fits.
func (l *Layout) Fit(w, h int, heur Heuristic) (Rect, bool) {
	if w <= 0 || h <= 0 || w > l.w || h > l.h {
		return Rect{}, false
	}
	best := -1
	var bestScore [2]int
	for i, f := range l.free {
		if f.W < w || f.H < h {
			continue
		}
		var score [2]int
		switch heur {
		case BottomLeft:
			score = [2]int{f.Y, f.X}
		case BestShortSideFit:
			dw, dh := f.W-w, f.H-h
			if dw > dh {
				dw, dh = dh, dw
			}
			score = [2]int{dw, dh}
		case BestAreaFit:
			score = [2]int{f.Area() - w*h, f.W - w}
		default:
			return Rect{}, false
		}
		if best < 0 || score[0] < bestScore[0] || (score[0] == bestScore[0] && score[1] < bestScore[1]) {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return Rect{}, false
	}
	return Rect{X: l.free[best].X, Y: l.free[best].Y, W: w, H: h}, true
}

// Commit places id at r, a rectangle Fit returned with no layout
// change since; unlike PlaceAt it does not re-validate r.
func (l *Layout) Commit(id int64, r Rect) {
	l.placed[id] = r
	l.splitFree(r)
}

// PlaceAt allocates the exact rectangle for id (tests and reservations).
func (l *Layout) PlaceAt(id int64, r Rect) error {
	if r.X < 0 || r.Y < 0 || r.W <= 0 || r.H <= 0 || r.X+r.W > l.w || r.Y+r.H > l.h {
		return fmt.Errorf("twod: rect %v out of bounds for %dx%d", r, l.w, l.h)
	}
	if _, dup := l.placed[id]; dup {
		return fmt.Errorf("twod: id %d already placed", id)
	}
	for oid, o := range l.placed {
		if o.Overlaps(r) {
			return fmt.Errorf("twod: rect %v overlaps %v (id %d)", r, o, oid)
		}
	}
	l.Commit(id, r)
	return nil
}

// Remove frees id's cells, returning false if absent.
func (l *Layout) Remove(id int64) bool {
	if _, ok := l.placed[id]; !ok {
		return false
	}
	delete(l.placed, id)
	l.rebuildFree()
	return true
}

// Reset clears all placements.
func (l *Layout) Reset() {
	clear(l.placed)
	l.rebuildFree()
}

// Clone returns an independent copy.
func (l *Layout) Clone() *Layout {
	out := &Layout{w: l.w, h: l.h, placed: make(map[int64]Rect, len(l.placed))}
	for k, v := range l.placed {
		out.placed[k] = v
	}
	out.free = append(out.free, l.free...)
	return out
}

// splitFree carves r out of every intersecting free rectangle, then
// prunes contained rectangles — the standard MAXRECTS update.
func (l *Layout) splitFree(r Rect) {
	var next []Rect
	for _, f := range l.free {
		if !f.Overlaps(r) {
			next = append(next, f)
			continue
		}
		// Up to four maximal sub-rectangles survive around r.
		if r.X > f.X { // left strip
			next = append(next, Rect{X: f.X, Y: f.Y, W: r.X - f.X, H: f.H})
		}
		if r.X+r.W < f.X+f.W { // right strip
			next = append(next, Rect{X: r.X + r.W, Y: f.Y, W: f.X + f.W - (r.X + r.W), H: f.H})
		}
		if r.Y > f.Y { // bottom strip
			next = append(next, Rect{X: f.X, Y: f.Y, W: f.W, H: r.Y - f.Y})
		}
		if r.Y+r.H < f.Y+f.H { // top strip
			next = append(next, Rect{X: f.X, Y: r.Y + r.H, W: f.W, H: f.Y + f.H - (r.Y + r.H)})
		}
	}
	l.free = pruneContained(next)
}

// rebuildFree recomputes the maximal free set from scratch by carving
// every placed rectangle out of the full device.
func (l *Layout) rebuildFree() {
	if l.w == 0 || l.h == 0 {
		l.free = nil
		return
	}
	l.free = []Rect{{X: 0, Y: 0, W: l.w, H: l.h}}
	rects := make([]Rect, 0, len(l.placed))
	for _, r := range l.placed {
		rects = append(rects, r)
	}
	// Deterministic order keeps the free list stable across runs.
	sort.Slice(rects, func(i, j int) bool {
		if rects[i].Y != rects[j].Y {
			return rects[i].Y < rects[j].Y
		}
		return rects[i].X < rects[j].X
	})
	for _, r := range rects {
		l.splitFree(r)
	}
}

// pruneContained removes rectangles contained in another.
func pruneContained(rs []Rect) []Rect {
	out := rs[:0]
	for i, a := range rs {
		contained := false
		for j, b := range rs {
			if i != j && b.Contains(a) && (a != b || j < i) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, a)
		}
	}
	return out
}

// String renders the layout row by row ('.' free, letters by placement
// id order), origin at the bottom-left like the heuristic names suggest.
func (l *Layout) String() string {
	grid := make([][]byte, l.h)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(".", l.w))
	}
	ids := make([]int64, 0, len(l.placed))
	for id := range l.placed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		r := l.placed[id]
		ch := byte('A' + i%26)
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				grid[y][x] = ch
			}
		}
	}
	var b strings.Builder
	for y := l.h - 1; y >= 0; y-- {
		b.Write(grid[y])
		b.WriteByte('\n')
	}
	return b.String()
}
