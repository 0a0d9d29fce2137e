package trace

import (
	"fmt"
	"strings"
)

// Gantt renders an ASCII Gantt chart, width columns wide. Glyphs:
//
//	#  compute             w  wasted (losing speculative copy)
//	-  transfer            %  dropped transfer
//	x  span killed by a crash
//	!  fault marker (crash/recover) on the worker's row
func (tl *Timeline) Gantt(width int) string {
	if width <= 0 {
		width = 72
	}
	if tl.Makespan <= 0 {
		return "(empty timeline)\n"
	}
	var b strings.Builder
	scale := float64(width) / tl.Makespan
	col := func(t float64) int {
		c := int(t * scale)
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for w, spans := range tl.Spans {
		row := []byte(strings.Repeat(".", width))
		for _, s := range spans {
			if s.End < s.Start {
				continue
			}
			ch := byte('-')
			switch {
			case s.Outcome == Killed:
				ch = 'x'
			case s.Kind == Comm && s.Outcome == Dropped:
				ch = '%'
			case s.Kind == Compute && s.Outcome == Wasted:
				ch = 'w'
			case s.Kind == Compute:
				ch = '#'
			}
			for c := col(s.Start); c <= col(s.End); c++ {
				row[c] = ch
			}
		}
		for _, m := range tl.Marks {
			if m.Worker == w && (m.Kind == MarkCrash || m.Kind == MarkRecover) && m.Time >= 0 {
				row[col(m.Time)] = '!'
			}
		}
		fmt.Fprintf(&b, "P%-3d |%s|\n", w+1, string(row))
	}
	fmt.Fprintf(&b, "      0%*s%.4g\n", width-1, "t=", tl.Makespan)
	return b.String()
}
