package experiments

import (
	"fmt"

	"nlfl/internal/dessim"
	"nlfl/internal/platform"
	"nlfl/internal/plot"
	"nlfl/internal/stats"
)

// ReturnsRow is one return-ratio level of the result-collection sweep.
type ReturnsRow struct {
	// Delta is the result-to-input size ratio δ.
	Delta float64
	// FIFOWins/LIFOWins count instances where each order was strictly
	// better; Ties the rest.
	FIFOWins, LIFOWins, Ties int
	// MeanGap is the mean |fifo-lifo|/min makespan gap.
	MeanGap float64
}

// ReturnsSweep quantifies the Section 1.2 exclusion: with result messages
// of ratio δ collected through the master's single ingress port, neither
// FIFO nor LIFO collection dominates — the scheduling question the paper
// set aside to isolate non-linearity. For each δ, `trials` random star
// platforms with one chunk per worker are evaluated.
func ReturnsSweep(deltas []float64, p, trials int, seed int64) ([]ReturnsRow, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: trials must be positive")
	}
	root := stats.NewRNG(seed)
	rows := make([]ReturnsRow, 0, len(deltas))
	for _, delta := range deltas {
		if delta < 0 {
			return nil, fmt.Errorf("experiments: negative return ratio %v", delta)
		}
		orders, err := perTrial(root, trials, func(r *stats.RNG) (ms [2]float64, err error) {
			ws := make([]platform.Worker, p)
			for i := range ws {
				ws[i] = platform.Worker{Speed: 0.3 + 4*r.Float64(), Bandwidth: 0.3 + 4*r.Float64()}
			}
			pl, err := platform.New(ws)
			if err != nil {
				return ms, err
			}
			chunks := make([]dessim.Chunk, p)
			for i := range chunks {
				d := 1 + 4*r.Float64()
				chunks[i] = dessim.Chunk{Worker: i, Data: d, Work: d}
			}
			ms[0], ms[1], err = dessim.CompareReturnOrders(pl, chunks, delta)
			return ms, err
		})
		if err != nil {
			return nil, err
		}
		row := ReturnsRow{Delta: delta}
		var gaps stats.Welford
		for _, ms := range orders {
			fifo, lifo := ms[0], ms[1]
			switch {
			case fifo < lifo-1e-9:
				row.FIFOWins++
			case lifo < fifo-1e-9:
				row.LIFOWins++
			default:
				row.Ties++
			}
			minMs := fifo
			if lifo < minMs {
				minMs = lifo
			}
			diff := fifo - lifo
			if diff < 0 {
				diff = -diff
			}
			gaps.Add(diff / minMs)
		}
		row.MeanGap = gaps.Mean()
		rows = append(rows, row)
	}
	return rows, nil
}

// ReturnsTable renders the sweep.
func ReturnsTable(rows []ReturnsRow) *plot.Table {
	t := plot.NewTable("δ", "FIFO wins", "LIFO wins", "ties", "mean |gap|")
	for _, r := range rows {
		t.AddRowf(r.Delta, r.FIFOWins, r.LIFOWins, r.Ties, r.MeanGap)
	}
	return t
}
