// Package geom provides the planar geometry used by the testbed simulator:
// points, wireless links between transceivers, first-Fresnel-zone tests and
// the strip-major location grid assumed by the paper's fingerprint matrix
// (Definition 2: location j = (i-1)*N/M + u lies on link i's strip).
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the monitoring plane, in meters.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance between p and q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Link is a wireless link between a transmitter and a receiver.
type Link struct {
	TX, RX Point
}

// Length returns the TX-RX distance in meters.
func (l Link) Length() float64 { return l.TX.Distance(l.RX) }

// Project returns the normalized projection parameter t of p onto the
// TX->RX segment (t=0 at TX, t=1 at RX), clamped to [0, 1], and the
// perpendicular distance from p to the (unclamped) line.
func (l Link) Project(p Point) (t, perp float64) {
	dx := l.RX.X - l.TX.X
	dy := l.RX.Y - l.TX.Y
	len2 := dx*dx + dy*dy
	if len2 == 0 {
		return 0, l.TX.Distance(p)
	}
	t = ((p.X-l.TX.X)*dx + (p.Y-l.TX.Y)*dy) / len2
	// Perpendicular distance from the infinite line.
	perp = math.Abs((p.X-l.TX.X)*dy-(p.Y-l.TX.Y)*dx) / math.Sqrt(len2)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return t, perp
}

// Grid is the strip-major division of the monitoring area into N = M*K
// cells: one strip of K cells along each of the M parallel links, cells
// ordered TX->RX within a strip. Location index j (0-based here; the paper
// is 1-based) belongs to strip j/K, position j%K.
type Grid struct {
	// Width is the extent along the link direction (TX->RX), meters.
	Width float64
	// Height is the extent across the links, meters.
	Height float64
	// Links is the number of parallel links M (= number of strips).
	Links int
	// PerStrip is the number of cells along each strip (K = N/M).
	PerStrip int
}

// NewGrid builds a strip-major grid. Width and height are the area
// dimensions in meters; links is M; perStrip is K.
func NewGrid(width, height float64, links, perStrip int) Grid {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("geom: non-positive grid dimensions %vx%v", width, height))
	}
	if links <= 0 || perStrip <= 0 {
		panic(fmt.Sprintf("geom: non-positive grid shape M=%d K=%d", links, perStrip))
	}
	return Grid{Width: width, Height: height, Links: links, PerStrip: perStrip}
}

// NumCells returns N = M*K.
func (g Grid) NumCells() int { return g.Links * g.PerStrip }

// CellSize returns the (along, across) dimensions of one cell in meters.
func (g Grid) CellSize() (along, across float64) {
	return g.Width / float64(g.PerStrip), g.Height / float64(g.Links)
}

// Center returns the center point of cell j (0-based, strip-major).
func (g Grid) Center(j int) Point {
	g.checkCell(j)
	strip := j / g.PerStrip
	pos := j % g.PerStrip
	along, across := g.CellSize()
	return Point{
		X: (float64(pos) + 0.5) * along,
		Y: (float64(strip) + 0.5) * across,
	}
}

// Strip returns the strip (link) index owning cell j.
func (g Grid) Strip(j int) int {
	g.checkCell(j)
	return j / g.PerStrip
}

// PosInStrip returns the position of cell j along its strip (0-based,
// TX side first).
func (g Grid) PosInStrip(j int) int {
	g.checkCell(j)
	return j % g.PerStrip
}

// CellIndex returns the strip-major index of the cell at (strip, pos).
func (g Grid) CellIndex(strip, pos int) int {
	if strip < 0 || strip >= g.Links || pos < 0 || pos >= g.PerStrip {
		panic(fmt.Sprintf("geom: cell (%d,%d) out of range %dx%d", strip, pos, g.Links, g.PerStrip))
	}
	return strip*g.PerStrip + pos
}

// CellAt returns the index of the cell containing p, or -1 when p is
// outside the area.
func (g Grid) CellAt(p Point) int {
	if p.X < 0 || p.X >= g.Width || p.Y < 0 || p.Y >= g.Height {
		return -1
	}
	along, across := g.CellSize()
	pos := int(p.X / along)
	strip := int(p.Y / across)
	if pos >= g.PerStrip {
		pos = g.PerStrip - 1
	}
	if strip >= g.Links {
		strip = g.Links - 1
	}
	return g.CellIndex(strip, pos)
}

// LinkLine returns the geometry of link i: TX at the left edge, RX at the
// right edge, running along the center line of strip i.
func (g Grid) LinkLine(i int) Link {
	if i < 0 || i >= g.Links {
		panic(fmt.Sprintf("geom: link %d out of range %d", i, g.Links))
	}
	_, across := g.CellSize()
	y := (float64(i) + 0.5) * across
	return Link{TX: Point{X: 0, Y: y}, RX: Point{X: g.Width, Y: y}}
}

func (g Grid) checkCell(j int) {
	if j < 0 || j >= g.NumCells() {
		panic(fmt.Sprintf("geom: cell %d out of range %d", j, g.NumCells()))
	}
}
