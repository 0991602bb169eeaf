// Sweep renders the headline result of the paper as ASCII curves: total
// SOC test time versus TAM width for the SI-oblivious baseline and the
// SI-aware optimizer, at a pattern volume where SI testing matters. The
// widening gap with W_max — and the flattening of the p34392 curve once
// its bottleneck core pins the InTest floor — are the shapes the
// paper's Tables 2 and 3 report.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"sitam"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	const (
		nr   = 20000
		seed = 1
	)
	widths := []int{8, 16, 24, 32, 40, 48, 56, 64}

	for _, name := range []string{"p34392", "p93791"} {
		s, err := sitam.LoadBenchmark(name)
		if err != nil {
			log.Fatal(err)
		}
		patterns, _, err := sitam.GeneratePatterns(ctx, s, sitam.GenConfig{N: nr, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		gr, err := sitam.BuildGroups(ctx, s, patterns, sitam.GroupingOptions{Parts: 4, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}

		var base, aware []int64
		for _, w := range widths {
			b, err := sitam.Optimize(ctx, s, w, gr.Groups, sitam.DefaultModel(), sitam.Algo{Kind: sitam.AlgoBaseline}, sitam.ParallelConfig{})
			if err != nil {
				log.Fatal(err)
			}
			a, err := sitam.Optimize(ctx, s, w, gr.Groups, sitam.DefaultModel(), sitam.Algo{}, sitam.ParallelConfig{})
			if err != nil {
				log.Fatal(err)
			}
			base = append(base, b.Breakdown.TimeSOC)
			aware = append(aware, a.Breakdown.TimeSOC)
		}

		fmt.Printf("%s, N_r=%d, g=4 — T_soc vs W_max ('o' = SI-oblivious, '*' = SI-aware)\n\n", name, nr)
		plot(widths, base, aware)
		fmt.Println()
	}
}

// plot draws two series as a crude ASCII scatter over a 20-row grid.
func plot(widths []int, a, b []int64) {
	var lo, hi int64
	for i := range a {
		for _, v := range []int64{a[i], b[i]} {
			if lo == 0 || v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	const rows = 18
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", 4*len(widths)+2))
	}
	put := func(col int, v int64, mark byte) {
		r := int(float64(hi-v) / float64(hi-lo) * float64(rows-1))
		c := 2 + 4*col
		if grid[r][c] == ' ' || grid[r][c] == mark {
			grid[r][c] = mark
		} else {
			grid[r][c] = '+' // both series share the cell
		}
	}
	for i := range widths {
		put(i, a[i], 'o')
		put(i, b[i], '*')
	}
	for r, row := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%7dk", hi/1000)
		case rows - 1:
			label = fmt.Sprintf("%7dk", lo/1000)
		}
		fmt.Printf("%s |%s\n", label, row)
	}
	fmt.Printf("         +%s\n", strings.Repeat("-", 4*len(widths)))
	fmt.Print("          ")
	for _, w := range widths {
		fmt.Printf("%4d", w)
	}
	fmt.Println("   (W_max)")
}
