package plot

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesMinMax(t *testing.T) {
	var s Series
	s.Add(1, 10, 2)
	s.Add(5, 20, 0)
	s.Add(3, 5, 1)
	xmin, xmax, ymin, ymax := s.MinMax()
	if xmin != 1 || xmax != 5 {
		t.Errorf("x range = (%v,%v), want (1,5)", xmin, xmax)
	}
	if ymin != 4 || ymax != 20 {
		t.Errorf("y range = (%v,%v), want (4,20) including error bars", ymin, ymax)
	}
}

func TestChartRenderBasics(t *testing.T) {
	c := &Chart{Title: "demo", XLabel: "p", YLabel: "ratio", Width: 40, Height: 10}
	s1 := c.AddSeries("alpha")
	s2 := c.AddSeries("beta")
	for i := 0; i < 10; i++ {
		s1.Add(float64(i), float64(i*i), 0)
		s2.Add(float64(i), float64(2*i), 1)
	}
	out := c.Render()
	for _, want := range []string{"demo", "alpha", "beta", "x: p", "y: ratio", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Errorf("expected at least 12 lines, got %d", len(lines))
	}
}

func TestChartRenderEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	out := c.Render()
	if !strings.Contains(out, "(no data)") {
		t.Errorf("empty chart should say so:\n%s", out)
	}
}

func TestChartRenderSinglePoint(t *testing.T) {
	c := &Chart{Width: 20, Height: 5}
	c.AddSeries("one").Add(3, 7, 0)
	out := c.Render()
	if !strings.Contains(out, "*") {
		t.Errorf("single point should still render a marker:\n%s", out)
	}
}

func TestChartErrorBars(t *testing.T) {
	c := &Chart{Width: 20, Height: 11}
	c.AddSeries("e").Add(0, 0, 0)
	c.AddSeries("f").Add(1, 0, 5)
	out := c.Render()
	if !strings.Contains(out, "|") {
		t.Errorf("error bar glyph missing:\n%s", out)
	}
}

func TestChartCSV(t *testing.T) {
	c := &Chart{}
	a := c.AddSeries("a,b") // comma must be escaped
	b := c.AddSeries("b")
	a.Add(1, 10, 0.5)
	a.Add(2, 20, 0.25)
	b.Add(2, 200, 0)
	csv := c.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header + 2 rows, got %d lines:\n%s", len(lines), csv)
	}
	if lines[0] != "x,a_b,a_b_sd,b,b_sd" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,10,0.5,," {
		t.Errorf("row1 = %q", lines[1])
	}
	if lines[2] != "2,20,0.25,200,0" {
		t.Errorf("row2 = %q", lines[2])
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("P", "fraction")
	tb.AddRowf(10, 0.9)
	tb.AddRowf(100, 0.99)
	out := tb.String()
	if !strings.Contains(out, "P") || !strings.Contains(out, "0.99") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines (header, sep, 2 rows), got %d", len(lines))
	}
	// All lines should be aligned to the same prefix width for column 1.
	if !strings.Contains(lines[1], "-") {
		t.Error("separator line missing")
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("1")                // short: padded
	tb.AddRow("1", "2", "3", "4") // long: truncated
	if len(tb.Rows[0]) != 3 || len(tb.Rows[1]) != 3 {
		t.Errorf("rows not normalized: %v", tb.Rows)
	}
	if tb.Rows[1][2] != "3" {
		t.Errorf("extra cell should be dropped, got %v", tb.Rows[1])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "y")
	tb.AddRow("a,0", "b")
	csv := tb.CSV()
	if csv != "x,y\na_0,b\n" {
		t.Errorf("csv = %q", csv)
	}
}

func TestChartLogY(t *testing.T) {
	c := &Chart{Width: 30, Height: 9, LogY: true}
	s := c.AddSeries("powers")
	for i := 0; i < 5; i++ {
		s.Add(float64(i), math.Pow(10, float64(i)), 0)
	}
	out := c.Render()
	// Axis labels show real values: top 1e4, bottom 1.
	if !strings.Contains(out, "1e+04") {
		t.Errorf("log axis top label missing:\n%s", out)
	}
	// In log scale the five decades are evenly spaced: the marker rows
	// must be distinct and roughly equidistant.
	lines := strings.Split(out, "\n")
	var rows []int
	for r, line := range lines {
		if strings.Contains(line, "*") && !strings.Contains(line, "powers") {
			rows = append(rows, r)
		}
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 marker rows, got %d:\n%s", len(rows), out)
	}
	for i := 2; i < len(rows); i++ {
		d1 := rows[i-1] - rows[i-2]
		d2 := rows[i] - rows[i-1]
		if absInt(d1-d2) > 1 {
			t.Errorf("log spacing uneven: %v", rows)
		}
	}
}

func TestChartLogYClampsNonPositive(t *testing.T) {
	c := &Chart{Width: 20, Height: 6, LogY: true}
	s := c.AddSeries("mixed")
	s.Add(0, -5, 0) // clamped, must not panic
	s.Add(1, 10, 0)
	if out := c.Render(); !strings.Contains(out, "*") {
		t.Errorf("clamped rendering broken:\n%s", out)
	}
	// All-nonpositive data must also render.
	c2 := &Chart{Width: 10, Height: 4, LogY: true}
	c2.AddSeries("neg").Add(0, -1, 0)
	if c2.Render() == "" {
		t.Error("all-negative log chart must still render")
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
