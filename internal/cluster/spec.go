// Package cluster scales DenseVLC's allocation past one room: it forms
// per-receiver serving sets from the large-scale channel matrix (the paper's
// Fig. 6 insight that a handful of dominant transmitters carry almost all of
// each receiver's gain — the same criterion user-centric cell-free massive
// MIMO uses for dynamic cooperation clustering), merges overlapping serving
// sets into disjoint cooperation clusters, and solves the allocation per
// cluster concurrently, stitching the per-cluster swing matrices back into
// one global allocation.
//
// The contract that makes the sharded path trustworthy is equivalence: a
// formation in which one cluster owns every transmitter in play reproduces
// the global solve bit for bit (identity slicing, full budget, same policy)
// — receivers no transmitter hears form TX-less clusters beside it that take
// no share of the budget — and any tighter formation keeps the stitched
// allocation feasible: per-TX swing bounds and the total power budget hold
// by construction because clusters own disjoint transmitter sets and split
// the budget over the receivers they can serve. The equivalence property
// suite in this package pins both halves.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Mode selects how a receiver's serving set is formed from its column of the
// large-scale channel matrix.
type Mode int

const (
	// ModeThreshold keeps every TX whose gain to the RX is at least
	// Threshold times the RX's best gain. Threshold 0 keeps every TX with
	// positive gain (the all-covering formation); threshold 1 keeps only the
	// argmax.
	ModeThreshold Mode = iota
	// ModeTopK keeps the TopK strongest TXs per RX (fewer when the RX hears
	// fewer positive gains).
	ModeTopK
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeThreshold:
		return "threshold"
	case ModeTopK:
		return "topk"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Merge selects how overlapping serving sets combine into clusters.
type Merge int

const (
	// MergeUnion merges serving sets that share a transmitter into one
	// cooperation cluster (union-find over the TX-sharing relation), so
	// clusters are disjoint in both TXs and RXs. The default.
	MergeUnion Merge = iota
	// MergeNone keeps one cluster per receiver and resolves contention by
	// gain: a TX claimed by several serving sets goes to the RX that hears
	// it loudest (ties to the lower RX index). Produces exactly M clusters.
	MergeNone
)

// String implements fmt.Stringer.
func (m Merge) String() string {
	switch m {
	case MergeUnion:
		return "union"
	case MergeNone:
		return "none"
	default:
		return fmt.Sprintf("Merge(%d)", int(m))
	}
}

// Spec configures cluster formation. The zero value is the all-covering
// formation (threshold 0, union merge): one cluster spanning every TX with
// positive gain, which reproduces the global solve.
type Spec struct {
	Mode Mode
	// Threshold is the relative gain fraction for ModeThreshold, in [0, 1].
	Threshold float64
	// TopK is the serving-set size for ModeTopK, at least 1.
	TopK int
	// Merge picks the overlap policy.
	Merge Merge
}

// Validate reports whether the spec is usable.
func (sp Spec) Validate() error {
	switch sp.Mode {
	case ModeThreshold:
		if math.IsNaN(sp.Threshold) || math.IsInf(sp.Threshold, 0) {
			return errors.New("cluster: threshold must be finite")
		}
		if sp.Threshold < 0 || sp.Threshold > 1 {
			return fmt.Errorf("cluster: threshold %g outside [0, 1]", sp.Threshold)
		}
	case ModeTopK:
		if sp.TopK < 1 {
			return fmt.Errorf("cluster: top-k %d must be at least 1", sp.TopK)
		}
	default:
		return fmt.Errorf("cluster: unknown formation mode %d", int(sp.Mode))
	}
	switch sp.Merge {
	case MergeUnion, MergeNone:
	default:
		return fmt.Errorf("cluster: unknown merge mode %d", int(sp.Merge))
	}
	return nil
}

// String renders the spec in the grammar Parse accepts:
// "threshold:VALUE:MERGE" or "topk:K:MERGE". The output is normalised —
// Parse(sp.String()) returns sp exactly, and String is a fixed point on
// parsed specs.
func (sp Spec) String() string {
	switch sp.Mode {
	case ModeTopK:
		return fmt.Sprintf("topk:%d:%s", sp.TopK, sp.Merge)
	default:
		return fmt.Sprintf("threshold:%s:%s", strconv.FormatFloat(sp.Threshold, 'g', -1, 64), sp.Merge)
	}
}

// Parse builds a Spec from its textual form: "threshold:0.05",
// "topk:8:none", … — MODE:VALUE with an optional :MERGE suffix (default
// union). Whitespace around fields is ignored. Non-finite thresholds are
// rejected here, before Validate's range checks, since NaN compares false
// against every bound.
func Parse(s string) (Spec, error) {
	fields := strings.Split(s, ":")
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	if len(fields) < 2 || len(fields) > 3 {
		return Spec{}, fmt.Errorf("cluster: spec %q: want MODE:VALUE[:MERGE]", s)
	}
	var sp Spec
	switch fields[0] {
	case "threshold":
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return Spec{}, fmt.Errorf("cluster: spec %q: bad threshold: %v", s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Spec{}, fmt.Errorf("cluster: spec %q: threshold must be finite", s)
		}
		sp.Mode, sp.Threshold = ModeThreshold, v
	case "topk":
		k, err := strconv.Atoi(fields[1])
		if err != nil {
			return Spec{}, fmt.Errorf("cluster: spec %q: bad top-k: %v", s, err)
		}
		sp.Mode, sp.TopK = ModeTopK, k
	default:
		return Spec{}, fmt.Errorf("cluster: spec %q: unknown mode %q (want threshold or topk)", s, fields[0])
	}
	if len(fields) == 3 {
		switch fields[2] {
		case "union":
			sp.Merge = MergeUnion
		case "none":
			sp.Merge = MergeNone
		default:
			return Spec{}, fmt.Errorf("cluster: spec %q: unknown merge mode %q (want union or none)", s, fields[2])
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}
