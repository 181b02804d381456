package report

import (
	"fmt"
	"math"
	"strings"
)

// ASCIIPlot renders a scatter of (x, y) pairs from two series columns as a
// terminal plot — the quick-look view `paperfigs -v` uses so
// figure shapes are inspectable without leaving the shell.
func (s *Series) ASCIIPlot(xCol, yCol string, width, height int) string {
	xi, yi := -1, -1
	for i, c := range s.Columns {
		if c == xCol {
			xi = i
		}
		if c == yCol {
			yi = i
		}
	}
	if xi < 0 || yi < 0 {
		return fmt.Sprintf("(no columns %q/%q in series %q)\n", xCol, yCol, s.Title)
	}
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	if len(s.Rows) == 0 {
		return "(empty series)\n"
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, row := range s.Rows {
		x, y := row[xi], row[yi]
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	counts := make([][]int, height)
	for r := range counts {
		counts[r] = make([]int, width)
	}
	for _, row := range s.Rows {
		cx := int((row[xi] - minX) / (maxX - minX) * float64(width-1))
		cy := int((row[yi] - minY) / (maxY - minY) * float64(height-1))
		counts[height-1-cy][cx]++
	}
	const shades = ".:*#@"
	for r := 0; r < height; r++ {
		for c := 0; c < width; c++ {
			n := counts[r][c]
			if n == 0 {
				continue
			}
			idx := n - 1
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			grid[r][c] = shades[idx]
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s vs %s\n", s.Title, yCol, xCol)
	fmt.Fprintf(&sb, "%11.4g +%s\n", maxY, strings.Repeat("-", width))
	for r := 0; r < height; r++ {
		fmt.Fprintf(&sb, "%11s |%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&sb, "%11.4g +%s\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(&sb, "%12s%-.4g%*s%.4g\n", "", minX, width-8, "", maxX)
	return sb.String()
}
