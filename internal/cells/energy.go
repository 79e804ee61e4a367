package cells

import (
	"fmt"

	"repro/internal/spice"
)

// measureSwitchEnergy measures the dynamic energy per output transition
// of a cell at a nominal operating point (input slew = TimeScale, load =
// 2x input cap): the supply energy of a full input pulse minus the
// static-state energy over the same window, halved (one rise + one
// fall). Static subtraction uses the same solver and step so systematic
// integration error cancels — important for the organic cells, whose
// ratioed static power dwarfs CV^2.
func measureSwitchEnergy(t *Technology, p *Proto, leakLow, leakHigh float64) (float64, error) {
	pin := p.Inputs[0]
	others, err := nonControlling(p, pin)
	if err != nil {
		return 0, err
	}
	window := 40 * t.TimeScale
	rise := t.TimeScale
	delay := 0.25 * window
	width := 0.35 * window

	pulse := spice.Pulse{V0: 0, V1: t.VDD, Delay: delay, Rise: rise, Width: width, Fall: rise}
	c, out := t.testBench(p, pin, pulse, others, 2*p.InputCap)
	rails := map[string]float64{"VDD": t.VDD}
	if t.VSS != 0 {
		rails["VSS"] = t.VSS
	}
	tr, err := c.Transient(window, window/2500, out)
	if err != nil {
		return 0, fmt.Errorf("energy transient: %w", err)
	}
	total := tr.SupplyEnergy(rails, 0, window)
	// Static energy of the two input states over their dwell times. The
	// DC leakage numbers correspond to all-low / all-high inputs; with
	// non-controlling companions this is the closest available baseline.
	tHigh := width + rise
	tLow := window - tHigh
	static := leakLow*tLow + leakHigh*tHigh
	e := (total - static) / 2
	if e < 0 {
		e = 0
	}
	return e, nil
}
