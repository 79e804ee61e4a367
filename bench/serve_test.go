package main

import "testing"

// TestTrafficEndsWhenTuplesRunOut draws requests past the last simulate
// tuple: every tuple is sent exactly once, then the traffic reports the
// end instead of failing.
func TestTrafficEndsWhenTuplesRunOut(t *testing.T) {
	g := newTraffic(1)
	sent := map[string]bool{}
	for {
		r, ok := g.next()
		if !ok {
			break
		}
		if r.kind != kindNew {
			continue
		}
		if sent[string(r.body)] {
			t.Fatalf("simulate %s sent twice", r.body)
		}
		sent[string(r.body)] = true
	}
	if len(sent) != tupleSpace {
		t.Errorf("%d distinct simulates before the end, want %d", len(sent), tupleSpace)
	}
	if _, ok := g.next(); ok {
		t.Error("next drew a request after the traffic ended")
	}
}
