package cluster

import (
	"fmt"

	"densevlc/internal/channel"
)

// Cluster is one cooperation cluster: the receivers it serves and the
// transmitters it owns, both as ascending global indices. Clusters partition
// the receivers and own disjoint transmitter sets; transmitters outside every
// cluster stay in illumination-only mode.
type Cluster struct {
	TXs []int
	RXs []int
}

// Clustering is the shard map: the cluster list in canonical order (sorted by
// smallest member RX) plus the inverse indices.
type Clustering struct {
	Clusters []Cluster
	// TXOf[tx] is the cluster owning tx, or -1 (illumination only).
	TXOf []int
	// RXOf[rx] is the cluster rx belongs to; every RX belongs to exactly
	// one. A receiver no transmitter serves — an all-zero gain column, or
	// under MergeNone one whose serving set went to louder receivers — is
	// in a cluster with no TXs, which receives no budget.
	RXOf []int

	// Reusable scratch, so steady-state re-formation allocates nothing once
	// capacities have grown to the topology's size (see FormInto).
	serve   [][]int // serve[rx]: serving set, reused across formations
	parent  []int   // union-find over RXs
	txOwner []int   // first RX seen claiming each TX (union mode)
	gainIdx []int   // top-k selection scratch
	order   []int   // cluster canonical-order scratch
}

// K returns the number of clusters.
func (c *Clustering) K() int { return len(c.Clusters) }

// MaxTXs returns the largest transmitter count across clusters.
func (c *Clustering) MaxTXs() int {
	max := 0
	for _, cl := range c.Clusters {
		if len(cl.TXs) > max {
			max = len(cl.TXs)
		}
	}
	return max
}

// Form builds the cooperation clustering of the given large-scale channel
// matrix under the spec. It is a convenience wrapper over FormInto with a
// fresh Clustering.
func Form(h *channel.Matrix, sp Spec) (*Clustering, error) {
	c := &Clustering{}
	if err := c.FormInto(h, sp); err != nil {
		return nil, err
	}
	return c, nil
}

// FormInto rebuilds the clustering in place from the matrix, reusing every
// internal buffer whose capacity suffices. The result is canonical — clusters
// sorted by their smallest receiver, members ascending — and depends only on
// the gain values, not on any iteration or report order: permuting the
// receiver columns permutes the RX labels inside clusters and nothing else.
func (c *Clustering) FormInto(h *channel.Matrix, sp Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	n, m := h.N, h.M
	c.servingSets(h, sp)

	c.TXOf = resetInts(c.TXOf, n, -1)
	c.RXOf = resetInts(c.RXOf, m, -1)

	if sp.Merge == MergeNone {
		c.formPerRX(h, m)
	} else {
		c.formUnion(n, m)
	}
	return nil
}

// servingSets fills c.serve with each RX's serving set under the spec,
// ascending TX indices.
func (c *Clustering) servingSets(h *channel.Matrix, sp Spec) {
	m := h.M
	if cap(c.serve) < m {
		c.serve = make([][]int, m)
	}
	c.serve = c.serve[:m]
	for i := 0; i < m; i++ {
		c.serve[i] = c.serve[i][:0]
	}
	switch sp.Mode {
	case ModeTopK:
		for i := 0; i < m; i++ {
			c.serve[i] = topK(c.serve[i], h, i, sp.TopK, &c.gainIdx)
		}
	default: // ModeThreshold
		for i := 0; i < m; i++ {
			best := 0.0
			for j := 0; j < h.N; j++ {
				if g := h.H[j][i]; g > best {
					best = g
				}
			}
			if best == 0 {
				continue // unhearable RX: empty serving set
			}
			cut := sp.Threshold * best
			for j := 0; j < h.N; j++ {
				g := h.H[j][i]
				if g > 0 && g >= cut {
					c.serve[i] = append(c.serve[i], j)
				}
			}
		}
	}
}

// topK appends the k strongest TXs for rx to dst (ascending index order) and
// returns it. Ties break toward the lower TX index; zero gains never rank.
// Partial selection sort keeps the kernel allocation-free (k is small), and
// the (gain desc, index asc) key is total, so the result does not depend on
// candidate order.
func topK(dst []int, h *channel.Matrix, rx, k int, scratch *[]int) []int {
	idx := (*scratch)[:0]
	for j := 0; j < h.N; j++ {
		if h.H[j][rx] > 0 {
			idx = append(idx, j)
		}
	}
	if len(idx) > k {
		for sel := 0; sel < k; sel++ {
			best := sel
			for c := sel + 1; c < len(idx); c++ {
				gb, gc := h.H[idx[best]][rx], h.H[idx[c]][rx]
				//lint:ignore floatcmp exact tie-break between identical stored gains; identity is the test
				if gc > gb || (gc == gb && idx[c] < idx[best]) {
					best = c
				}
			}
			idx[sel], idx[best] = idx[best], idx[sel]
		}
		idx = idx[:k]
	}
	insertionSort(idx)
	dst = append(dst, idx...)
	*scratch = idx[:0]
	return dst
}

// insertionSort sorts s ascending in place without allocating; inputs here
// are small or already nearly sorted (ascending runs per serving set).
func insertionSort(s []int) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// formUnion merges serving sets that share a transmitter (union-find over
// RXs) and emits the clusters in canonical order.
func (c *Clustering) formUnion(n, m int) {
	c.parent = resetSeq(c.parent, m)
	c.txOwner = resetInts(c.txOwner, n, -1)
	for i := 0; i < m; i++ {
		for _, tx := range c.serve[i] {
			if o := c.txOwner[tx]; o < 0 {
				c.txOwner[tx] = i
			} else {
				c.union(o, i)
			}
		}
	}

	// Root → cluster index, in ascending-root order so clusters come out
	// sorted by their smallest member RX (the root is the set minimum via
	// union's min-wins rule). c.order doubles as the root→index map: roots
	// are ascending, so the cluster index of root r is its position, found
	// by reusing RXOf as the translation table in a single pass.
	c.order = c.order[:0]
	for i := 0; i < m; i++ {
		if c.find(i) == i {
			c.order = append(c.order, i)
		}
	}
	c.Clusters = resetClusters(c.Clusters, len(c.order))
	for ci := range c.Clusters {
		c.Clusters[ci].TXs = c.Clusters[ci].TXs[:0]
		c.Clusters[ci].RXs = c.Clusters[ci].RXs[:0]
	}
	for ci, root := range c.order {
		c.RXOf[root] = ci
	}
	for i := 0; i < m; i++ {
		ci := c.RXOf[c.find(i)]
		c.RXOf[i] = ci
		c.Clusters[ci].RXs = append(c.Clusters[ci].RXs, i)
	}
	// TX membership: a TX belongs to the cluster of the serving sets that
	// claimed it (all claimants share one cluster by construction). Appends
	// arrive as ascending runs per RX, so an insertion sort restores the
	// per-cluster ascending order cheaply and without allocating.
	for i := 0; i < m; i++ {
		ci := c.RXOf[i]
		for _, tx := range c.serve[i] {
			if c.TXOf[tx] < 0 {
				c.TXOf[tx] = ci
				c.Clusters[ci].TXs = append(c.Clusters[ci].TXs, tx)
			}
		}
	}
	for ci := range c.Clusters {
		insertionSort(c.Clusters[ci].TXs)
	}
}

// formPerRX is MergeNone: one cluster per RX, contended TXs awarded to the
// loudest receiver (ties to the lower RX index).
func (c *Clustering) formPerRX(h *channel.Matrix, m int) {
	c.Clusters = resetClusters(c.Clusters, m)
	for i := 0; i < m; i++ {
		c.RXOf[i] = i
		c.Clusters[i].TXs = c.Clusters[i].TXs[:0]
		c.Clusters[i].RXs = append(c.Clusters[i].RXs[:0], i)
	}
	for i := 0; i < m; i++ {
		for _, tx := range c.serve[i] {
			switch o := c.TXOf[tx]; {
			case o < 0:
				c.TXOf[tx] = i
			case h.H[tx][i] > h.H[tx][o]:
				c.TXOf[tx] = i // later claimant hears it louder
			}
		}
	}
	for tx, ci := range c.TXOf {
		if ci >= 0 {
			c.Clusters[ci].TXs = append(c.Clusters[ci].TXs, tx)
		}
	}
}

func (c *Clustering) find(i int) int {
	for c.parent[i] != i {
		c.parent[i] = c.parent[c.parent[i]]
		i = c.parent[i]
	}
	return i
}

// union merges the sets of a and b with the smaller root winning, so every
// root is its set's minimum RX — the property the canonical ordering relies
// on.
func (c *Clustering) union(a, b int) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	if ra < rb {
		c.parent[rb] = ra
	} else {
		c.parent[ra] = rb
	}
}

// Validate checks the clustering invariants: RXs partitioned, TX sets
// disjoint, indices in range and ascending. It exists for the property
// suites; Form output always satisfies it.
func (c *Clustering) Validate(n, m int) error {
	seenTX := make([]bool, n)
	seenRX := make([]bool, m)
	for ci, cl := range c.Clusters {
		for k, tx := range cl.TXs {
			if tx < 0 || tx >= n {
				return fmt.Errorf("cluster %d: TX %d out of range [0,%d)", ci, tx, n)
			}
			if seenTX[tx] {
				return fmt.Errorf("cluster %d: TX %d owned twice", ci, tx)
			}
			seenTX[tx] = true
			if k > 0 && cl.TXs[k-1] >= tx {
				return fmt.Errorf("cluster %d: TXs not ascending at %d", ci, k)
			}
			if c.TXOf[tx] != ci {
				return fmt.Errorf("cluster %d: TXOf[%d] = %d", ci, tx, c.TXOf[tx])
			}
		}
		for k, rx := range cl.RXs {
			if rx < 0 || rx >= m {
				return fmt.Errorf("cluster %d: RX %d out of range [0,%d)", ci, rx, m)
			}
			if seenRX[rx] {
				return fmt.Errorf("cluster %d: RX %d served twice", ci, rx)
			}
			seenRX[rx] = true
			if k > 0 && cl.RXs[k-1] >= rx {
				return fmt.Errorf("cluster %d: RXs not ascending at %d", ci, k)
			}
			if c.RXOf[rx] != ci {
				return fmt.Errorf("cluster %d: RXOf[%d] = %d", ci, rx, c.RXOf[rx])
			}
		}
	}
	for rx, ci := range c.RXOf {
		if ci < 0 || ci >= len(c.Clusters) {
			return fmt.Errorf("RX %d assigned to no cluster", rx)
		}
	}
	return nil
}

// resetInts returns s resized to n with every element set to v, reusing the
// backing array when it is large enough.
func resetInts(s []int, n int, v int) []int {
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// resetSeq returns s resized to n with s[i] = i.
func resetSeq(s []int, n int) []int {
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = i
	}
	return s
}

// resetClusters returns s resized to k, reusing member slices.
func resetClusters(s []Cluster, k int) []Cluster {
	if cap(s) < k {
		grown := make([]Cluster, k)
		copy(grown, s)
		s = grown
	}
	return s[:k]
}
