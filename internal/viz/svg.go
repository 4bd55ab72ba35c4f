// Package viz renders the paper's visual artefacts without any
// external dependency: SVG scatter plots of PCA-projected embeddings
// (Figures 4 and 8), SVG line charts for the sweep figures (Figures
// 5-7, 9, 10), and a ForceAtlas2-style force-directed graph layout
// with Barnes-Hut approximation for the raw graph drawings (Figure 3).
package viz

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Palette is the default categorical palette (colour-blind friendly
// 10-colour cycle, matching matplotlib's tab10 ordering).
var Palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// Color returns palette colour i (cycled), or grey for a negative i:
// a point without a label.
func Color(i int) string {
	if i < 0 {
		return "#999999"
	}
	return Palette[i%len(Palette)]
}

// ScatterPlot is a 2-D categorical scatter plot.
type ScatterPlot struct {
	Title    string
	X, Y     []float64
	Category []int    // colour index per point (negative: no label, grey); nil = all one colour
	Labels   []string // legend text per category index; optional
	Width    int      // pixels; default 720
	Height   int      // pixels; default 560
	Radius   float64  // point radius; default 3
}

// WriteSVG renders the plot.
func (p *ScatterPlot) WriteSVG(w io.Writer) error {
	if len(p.X) != len(p.Y) {
		return fmt.Errorf("viz: scatter has %d x values but %d y values", len(p.X), len(p.Y))
	}
	if p.Category != nil && len(p.Category) != len(p.X) {
		return fmt.Errorf("viz: scatter has %d categories for %d points", len(p.Category), len(p.X))
	}
	width, height := p.Width, p.Height
	if width <= 0 {
		width = 720
	}
	if height <= 0 {
		height = 560
	}
	r := p.Radius
	if r <= 0 {
		r = 3
	}
	const margin = 40.0
	minX, maxX := bounds(p.X)
	minY, maxY := bounds(p.Y)
	spanX := maxX - minX
	spanY := maxY - minY
	if spanX == 0 {
		spanX = 1
	}
	if spanY == 0 {
		spanY = 1
	}
	sx := func(x float64) float64 { return margin + (x-minX)/spanX*(float64(width)-2*margin) }
	sy := func(y float64) float64 { return float64(height) - margin - (y-minY)/spanY*(float64(height)-2*margin) }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	if p.Title != "" {
		fmt.Fprintf(w, `<text x="%d" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">%s</text>`+"\n", width/2, escape(p.Title))
	}
	for i := range p.X {
		c := "#1f77b4"
		if p.Category != nil {
			c = Color(p.Category[i])
		}
		fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="%.1f" fill="%s" fill-opacity="0.75"/>`+"\n", sx(p.X[i]), sy(p.Y[i]), r, c)
	}
	if p.Labels != nil {
		p.writeLegend(w, width)
	}
	fmt.Fprintln(w, `</svg>`)
	return nil
}

func (p *ScatterPlot) writeLegend(w io.Writer, width int) {
	cats := make(map[int]bool)
	for _, c := range p.Category {
		cats[c] = true
	}
	keys := make([]int, 0, len(cats))
	for c := range cats {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	y := 40.0
	for _, c := range keys {
		label := fmt.Sprintf("%d", c)
		switch {
		case c < 0:
			label = "?"
		case c < len(p.Labels):
			label = p.Labels[c]
		}
		fmt.Fprintf(w, `<circle cx="%d" cy="%.1f" r="5" fill="%s"/>`+"\n", width-130, y, Color(c))
		fmt.Fprintf(w, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="12">%s</text>`+"\n", width-120, y+4, escape(label))
		y += 18
	}
}

// Series is one line of a LineChart.
type Series struct {
	Name string
	X, Y []float64
}

// LineChart is a multi-series line chart with axes and legend, used
// to regenerate the sweep figures.
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Width  int
	Height int
	YMin   float64 // axis range; both zero = auto
	YMax   float64
}

// WriteSVG renders the chart.
func (c *LineChart) WriteSVG(w io.Writer) error {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 720
	}
	if height <= 0 {
		height = 480
	}
	const margin = 56.0
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("viz: series %q has %d x values but %d y values", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		minX, maxX, minY, maxY = 0, 1, 0, 1
	}
	if c.YMin != 0 || c.YMax != 0 {
		minY, maxY = c.YMin, c.YMax
	}
	spanX, spanY := maxX-minX, maxY-minY
	if spanX == 0 {
		spanX = 1
	}
	if spanY == 0 {
		spanY = 1
	}
	sx := func(x float64) float64 { return margin + (x-minX)/spanX*(float64(width)-2*margin) }
	sy := func(y float64) float64 { return float64(height) - margin - (y-minY)/spanY*(float64(height)-2*margin) }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	if c.Title != "" {
		fmt.Fprintf(w, `<text x="%d" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">%s</text>`+"\n", width/2, escape(c.Title))
	}
	// Axes.
	fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n", margin, float64(height)-margin, float64(width)-margin, float64(height)-margin)
	fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n", margin, margin, margin, float64(height)-margin)
	// Ticks: 5 per axis.
	for i := 0; i <= 5; i++ {
		xv := minX + spanX*float64(i)/5
		yv := minY + spanY*float64(i)/5
		fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle">%.3g</text>`+"\n", sx(xv), float64(height)-margin+16, xv)
		fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%.3g</text>`+"\n", margin-6, sy(yv)+4, yv)
	}
	if c.XLabel != "" {
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n", width/2, height-8, escape(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(w, `<text x="16" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n", height/2, height/2, escape(c.YLabel))
	}
	for si, s := range c.Series {
		color := Color(si)
		fmt.Fprintf(w, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="`, color)
		for i := range s.X {
			fmt.Fprintf(w, "%.2f,%.2f ", sx(s.X[i]), sy(s.Y[i]))
		}
		fmt.Fprintln(w, `"/>`)
		for i := range s.X {
			fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="2.5" fill="%s"/>`+"\n", sx(s.X[i]), sy(s.Y[i]), color)
		}
		// Legend entry.
		ly := 40 + 16*si
		fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n", width-150, ly, width-130, ly, color)
		fmt.Fprintf(w, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n", width-124, ly+4, escape(s.Name))
	}
	fmt.Fprintln(w, `</svg>`)
	return nil
}

// GraphPlot draws a laid-out graph: vertex positions plus edges.
type GraphPlot struct {
	Title    string
	X, Y     []float64
	Edges    [][2]int
	Category []int
	Width    int
	Height   int
}

// WriteSVG renders the drawing.
func (p *GraphPlot) WriteSVG(w io.Writer) error {
	if len(p.X) != len(p.Y) {
		return fmt.Errorf("viz: graph plot has %d x values but %d y values", len(p.X), len(p.Y))
	}
	if p.Category != nil && len(p.Category) != len(p.X) {
		return fmt.Errorf("viz: graph plot has %d categories for %d points", len(p.Category), len(p.X))
	}
	width, height := p.Width, p.Height
	if width <= 0 {
		width = 720
	}
	if height <= 0 {
		height = 720
	}
	const margin = 24.0
	minX, maxX := bounds(p.X)
	minY, maxY := bounds(p.Y)
	spanX, spanY := maxX-minX, maxY-minY
	if spanX == 0 {
		spanX = 1
	}
	if spanY == 0 {
		spanY = 1
	}
	sx := func(x float64) float64 { return margin + (x-minX)/spanX*(float64(width)-2*margin) }
	sy := func(y float64) float64 { return float64(height) - margin - (y-minY)/spanY*(float64(height)-2*margin) }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	if p.Title != "" {
		fmt.Fprintf(w, `<text x="%d" y="20" font-family="sans-serif" font-size="14" text-anchor="middle">%s</text>`+"\n", width/2, escape(p.Title))
	}
	for _, e := range p.Edges {
		fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#bbbbbb" stroke-width="0.4" stroke-opacity="0.5"/>`+"\n",
			sx(p.X[e[0]]), sy(p.Y[e[0]]), sx(p.X[e[1]]), sy(p.Y[e[1]]))
	}
	for i := range p.X {
		c := "#1f77b4"
		if p.Category != nil {
			c = Color(p.Category[i])
		}
		fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n", sx(p.X[i]), sy(p.Y[i]), c)
	}
	fmt.Fprintln(w, `</svg>`)
	return nil
}

func bounds(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 1
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

func escape(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '<':
			out = append(out, []rune("&lt;")...)
		case '>':
			out = append(out, []rune("&gt;")...)
		case '&':
			out = append(out, []rune("&amp;")...)
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
