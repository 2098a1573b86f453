package channel

import (
	"densevlc/internal/optics"
)

// UpdateColumns recomputes rows [lo, hi) of the listed columns of the
// matrix: for every receiver rx in cols and every emitter j in [lo, hi), the
// gain from emitters[j] to dets[rx]. It is the row-local channel refresh
// behind incremental re-allocation: when receivers move only their columns
// of H change, so the O(N·len(cols)) kernel replaces the O(N·M) BuildMatrix
// rebuild. The per-entry arithmetic is exactly BuildMatrix's, so refreshing
// every column reproduces a full rebuild bit for bit, and disjoint row
// ranges may be refreshed concurrently. emitters has one entry per row and
// dets one per column; a non-nil blocker zeroes occluded links.
//
//lint:hotpath
func (m *Matrix) UpdateColumns(lo, hi int, cols []int, emitters []optics.Emitter, dets []optics.Detector, blocker Blocker) {
	bad := lo < 0 || lo > hi || hi > m.N || len(emitters) != m.N || len(dets) != m.M
	for _, rx := range cols {
		bad = bad || rx < 0 || rx >= m.M
	}
	if bad {
		//lint:ignore apipanic dimension mismatch is a caller bug; hot callers size emitters, dets and cols from the same Setup as H
		panic("channel: UpdateColumns: row range, column, emitter or detector count disagrees with the matrix")
	}
	rows, ems := m.H[lo:hi], emitters[lo:hi]
	for _, rx := range cols {
		det := dets[rx]
		for j := range ems {
			if blocker != nil && blocker.Blocked(ems[j].Pos, det.Pos) {
				rows[j][rx] = 0
				continue
			}
			rows[j][rx] = optics.Gain(ems[j], det)
		}
	}
}
