// Rfidtag compares organic pipeline depths under an energy-per-operation
// proxy for an RFID/packaging tag — high-volume, never-recycled devices
// the paper names as prime biodegradable-computing targets (Section 2).
//
// RFID tags are power-limited: the harvested-power budget fixes how much
// static power the logic may burn, while the protocol fixes a response
// deadline. The example uses the vortex kernel (hash lookups, like tag
// ID matching) and the static power of the pseudo-E cells.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/biodeg"
)

func main() {
	org := biodeg.Organic()
	lib := biodeg.Library(org)

	// Static power proxy: pseudo-E cells burn worst-case static power
	// when inputs are low. Average the characterized leakage.
	inv := lib.MustCell("INV")
	perCell := (inv.LeakLow + inv.LeakHigh) / 2
	fmt.Printf("pseudo-E INV static power: %.3g W (low) / %.3g W (high)\n\n", inv.LeakLow, inv.LeakHigh)

	const harvested = 55e-3   // W available from the reader field (large-area organic tag)
	const deadline = 10.0     // seconds to answer an inventory round (organic RFID runs ~100 b/s)
	const instrsPerQuery = 60 // tag-ID hash and compare (vortex kernel inner loop)
	const activeFrac = 0.04   // power-gated: only the awake slice of cells burns static power

	pts, err := biodeg.New(biodeg.Config{}).CoreDepth(context.Background(), org, 9, 15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-7s %10s %12s %14s %12s\n", "depth", "IPC", "freq (Hz)", "latency (s)", "power (W)")
	for _, p := range pts {
		ipc := p.IPC["vortex"]
		latency := instrsPerQuery / (p.Freq * ipc)
		// Cells scale with area; approximate cell count by area ratio.
		cellsN := p.Area / inv.Area
		power := perCell * cellsN * activeFrac
		verdict := ""
		if latency <= deadline && power <= harvested {
			verdict = "  <- feasible"
		}
		fmt.Printf("%-7d %10.3f %12.2f %14.2f %12.4f%s\n", p.Depth, ipc, p.Freq, latency, power, verdict)
	}
	fmt.Println("\nDeeper organic pipelines buy latency headroom at almost no power")
	fmt.Println("cost — the paper's depth result applied to a tag budget.")
}
