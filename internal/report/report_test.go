package report

import (
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"name", "value"}}
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 10)
	out := tb.String()
	if !strings.Contains(out, "T\n") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.14") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.AddRow("x,y", `quote"d`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"quote""d"`) {
		t.Errorf("quote cell not escaped: %s", csv)
	}
}

func TestSeriesCSV(t *testing.T) {
	s := Series{Title: "S", Columns: []string{"x", "y"}}
	for i := 0; i < 10; i++ {
		s.AddRow(float64(i), float64(i*i))
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "x,y\n0,0\n1,1\n") {
		t.Errorf("csv head wrong: %s", csv[:30])
	}
}

func TestSeriesAddRowCopies(t *testing.T) {
	s := Series{Columns: []string{"x"}}
	buf := []float64{1}
	s.AddRow(buf...)
	buf[0] = 99
	if s.Rows[0][0] != 1 {
		t.Fatal("AddRow aliased caller slice")
	}
}

func TestASCIIPlotRendersPoints(t *testing.T) {
	s := Series{Title: "demo", Columns: []string{"x", "y"}}
	for i := 0; i < 20; i++ {
		s.AddRow(float64(i), float64(i*i))
	}
	out := s.ASCIIPlot("x", "y", 40, 10)
	if !strings.Contains(out, "demo: y vs x") {
		t.Fatalf("missing title:\n%s", out)
	}
	marks := strings.Count(out, ".") + strings.Count(out, ":") +
		strings.Count(out, "*") + strings.Count(out, "#") + strings.Count(out, "@")
	if marks < 10 {
		t.Fatalf("too few plotted marks (%d):\n%s", marks, out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 14 { // title + top axis + 10 rows + bottom axis + x labels
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestASCIIPlotDegenerate(t *testing.T) {
	s := Series{Title: "d", Columns: []string{"x", "y"}}
	if out := s.ASCIIPlot("x", "y", 20, 5); !strings.Contains(out, "empty series") {
		t.Fatalf("empty series output: %s", out)
	}
	s.AddRow(1, 1)
	// Single point: ranges degenerate, must not panic.
	out := s.ASCIIPlot("x", "y", 20, 5)
	if !strings.Contains(out, "d: y vs x") {
		t.Fatalf("single point plot broken:\n%s", out)
	}
	if out := s.ASCIIPlot("nope", "y", 20, 5); !strings.Contains(out, "no columns") {
		t.Fatalf("missing-column message wrong: %s", out)
	}
}

func TestASCIIPlotDensityShading(t *testing.T) {
	s := Series{Title: "dense", Columns: []string{"x", "y"}}
	for i := 0; i < 100; i++ {
		s.AddRow(0, 0) // all points in one cell
	}
	s.AddRow(10, 10) // stretch the range
	out := s.ASCIIPlot("x", "y", 10, 5)
	if !strings.Contains(out, "@") {
		t.Fatalf("hot cell not shaded densest:\n%s", out)
	}
}
