// Widthsweep reproduces the superscalar width exploration (paper
// Figs. 13-14) through the public API and reports each technology's
// optimum, showing the headline claim: organic cores want wider
// back ends than silicon because their wires are relatively fast.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/biodeg"
	"repro/internal/core"
)

func main() {
	session := biodeg.New(biodeg.Config{})
	for _, tech := range []*biodeg.Technology{biodeg.Silicon(), biodeg.Organic()} {
		pts, err := session.Widths(context.Background(), tech)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", tech.Name)
		fmt.Printf("%-12s", "")
		for fe := core.MinFront; fe <= core.MaxFront; fe++ {
			fmt.Printf("  fe=%d ", fe)
		}
		fmt.Println()
		m := core.Matrix(pts, false)
		for i, row := range m {
			fmt.Printf("back-end %d: ", i+core.MinBack)
			for _, v := range row {
				fmt.Printf(" %5.2f", v)
			}
			fmt.Println()
		}
		var bestP core.WidthPoint
		for _, p := range pts {
			if p.Perf > bestP.Perf {
				bestP = p
			}
		}
		fmt.Printf("optimum: front-end %d, back-end %d (period %.3g s, mean IPC %.3f)\n\n",
			bestP.Front, bestP.Back, bestP.Period, bestP.MeanIPC)
	}
	fmt.Println("Silicon pays for width in wire delay; the organic process does not —")
	fmt.Println("so organic designs stay near-optimal across much wider back ends.")
}
