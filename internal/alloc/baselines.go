package alloc

import (
	"sort"

	"densevlc/internal/channel"
	"densevlc/internal/units"
)

// SISO is the "nearest-TX communicating" baseline of Sec. 8.3: only the
// single transmitter with the best channel to each receiver communicates
// (at full swing); every other LED stays in illumination mode. With M
// receivers it activates at most M transmitters regardless of budget.
type SISO struct{}

// Name implements Policy.
func (SISO) Name() string { return "SISO" }

// Allocate implements Policy. The budget is still honoured: receivers are
// served in order of their best channel until activations no longer fit.
func (SISO) Allocate(env *Env, budget units.Watts) (channel.Swings, error) {
	if err := CheckRequest(env, budget); err != nil {
		return nil, err
	}
	type pick struct {
		rx, tx int
		gain   float64
	}
	picks := make([]pick, 0, env.M())
	for i := 0; i < env.M(); i++ {
		tx := env.H.BestTX(i)
		if tx < 0 {
			continue
		}
		picks = append(picks, pick{rx: i, tx: tx, gain: env.H.Gain(tx, i)})
	}
	sort.Slice(picks, func(a, b int) bool { return picks[a].gain > picks[b].gain })

	order := make([]Assignment, len(picks))
	for k, p := range picks {
		order[k] = Assignment{TX: p.tx, RX: p.rx}
	}
	return SwingsFromAssignments(env, order, budget, false), nil
}

// OperatingPower returns the communication power SISO consumes when fully
// deployed (one full-swing TX per receiver) — its single operating point in
// Fig. 21.
func (SISO) OperatingPower(env *Env) units.Watts {
	n := 0
	for i := 0; i < env.M(); i++ {
		if env.H.BestTX(i) >= 0 {
			n++
		}
	}
	return units.Watts(float64(n) * env.ActivationCost().W())
}

// DMISO is the "all-TXs communicating" baseline of Sec. 8.3: every
// transmitter communicates at full swing, independent of the receivers'
// positions (in the paper's setup this amounts to each receiver being served
// by its ring of 9 surrounding TXs). Each TX sends the data of the receiver
// it has the strongest channel to — a TX hearing no receiver at all stays
// in illumination mode.
type DMISO struct{}

// Name implements Policy.
func (DMISO) Name() string { return "D-MISO" }

// Assignments returns the full D-MISO TX→RX mapping, strongest links first.
func (DMISO) Assignments(env *Env) []Assignment {
	type link struct {
		tx, rx int
		gain   float64
	}
	links := make([]link, 0, env.N())
	for j := 0; j < env.N(); j++ {
		rx, best := -1, 0.0
		for i := 0; i < env.M(); i++ {
			if g := env.H.Gain(j, i); g > best {
				rx, best = i, g
			}
		}
		if rx >= 0 {
			links = append(links, link{tx: j, rx: rx, gain: best})
		}
	}
	sort.Slice(links, func(a, b int) bool { return links[a].gain > links[b].gain })

	order := make([]Assignment, len(links))
	for k, l := range links {
		order[k] = Assignment{TX: l.tx, RX: l.rx}
	}
	return order
}

// Allocate implements Policy. D-MISO ignores power efficiency by design but
// still cannot overspend the budget: activations stop when it is exhausted.
func (d DMISO) Allocate(env *Env, budget units.Watts) (channel.Swings, error) {
	if err := CheckRequest(env, budget); err != nil {
		return nil, err
	}
	return SwingsFromAssignments(env, d.Assignments(env), budget, false), nil
}

// OperatingPower returns the communication power D-MISO consumes when fully
// deployed — its operating point in Fig. 21 (2.68 W in the paper: 36 TXs at
// 74.42 mW each).
func (d DMISO) OperatingPower(env *Env) units.Watts {
	return units.Watts(float64(len(d.Assignments(env))) * env.ActivationCost().W())
}
