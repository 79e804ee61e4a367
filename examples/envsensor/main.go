// Envsensor picks a biodegradable processor design point for an
// environmental-sensing deployment — the paper's motivating use case
// (Sections 1-2): sensors left in the field must biodegrade, and the
// core must meet a modest sample-processing deadline in minimum area.
//
// The program sweeps organic core depths, finds the configurations that
// meet the workload's throughput requirement, and reports the smallest.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/biodeg"
)

func main() {
	// Duty cycle: the sensor filters one reading every 45 seconds; an
	// exponential-moving-average filter plus threshold event detection
	// costs ~300 instructions per reading (the parser kernel's per-token
	// cost stands in for the classification inner loop). Organic cores
	// run at tens of hertz, so even this modest duty cycle forces a
	// deeper pipeline.
	const instrsPerEvent = 300
	const eventsPerSecond = 1.0 / 45

	org := biodeg.Organic()
	pts, err := biodeg.New(biodeg.Config{}).CoreDepth(context.Background(), org, 9, 15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Organic core design points (environmental sensor, parser kernel):")
	fmt.Printf("%-7s %12s %10s %14s %10s\n", "depth", "freq (Hz)", "IPC", "readings/s", "area (m^2)")
	type choice struct {
		depth int
		area  float64
	}
	var best *choice
	for _, p := range pts {
		ipc := p.IPC["parser"]
		rate := p.Freq * ipc / instrsPerEvent
		ok := ""
		if rate >= eventsPerSecond {
			ok = "  <- meets deadline"
			if best == nil || p.Area < best.area {
				best = &choice{p.Depth, p.Area}
			}
		}
		fmt.Printf("%-7d %12.3f %10.3f %14.6f %10.4f%s\n", p.Depth, p.Freq, ipc, rate, p.Area, ok)
	}
	if best == nil {
		fmt.Println("\nNo organic design point meets the deadline; raise the duty cycle.")
		return
	}
	fmt.Printf("\nSelected: %d-stage organic core (%.4f m^2 of pentacene logic).\n", best.depth, best.area)
	fmt.Println("Unlike a silicon node, this sensor platform biodegrades in the")
	fmt.Println("field — no retrieval at end-of-life (paper Fig. 1).")
}
