package graph

import "math"

// Scratch holds the reusable working memory of the path searches: the
// Dijkstra dist/prev arrays and priority queue, the hop-limited DP's
// cur/next cost ladders and its hop-indexed predecessor table, and the
// reversal buffers of path reconstruction. One Scratch serves any number
// of sequential searches over graphs of any size (arrays grow on demand
// and are retained at high-water mark), so a caller that owns one — an
// admission algorithm — pays zero search allocations after
// warm-up beyond the returned Path itself.
//
// A Scratch is single-owner: two concurrent searches must use two
// Scratches.
type Scratch struct {
	heap searchHeap
	dist []float64
	prev []predLink

	// Hop-limited DP ladders: cur/next cost rows and the flattened
	// prevAt table, row h at preds[h*numStates : (h+1)*numStates].
	cur   []float64
	next  []float64
	preds []hopPred

	// Path-reconstruction reversal buffers.
	nodesRev []int
	edgesRev []Edge
}

// hopPred records how a hop-limited DP state was reached: from which
// (hop, state) and over which edge.
type hopPred struct {
	hop   int
	state int
	edge  Edge
}

// NewScratch returns an empty scratch; arrays are sized lazily by the
// first search that uses them.
func NewScratch() *Scratch { return &Scratch{} }

// ensureDijkstra sizes and re-initialises the Dijkstra arrays for a
// search over numStates states: dist all +Inf, prev all absent.
func (sc *Scratch) ensureDijkstra(numStates int) {
	if cap(sc.dist) < numStates {
		sc.dist = make([]float64, numStates)
		sc.prev = make([]predLink, numStates)
	}
	sc.dist = sc.dist[:numStates]
	sc.prev = sc.prev[:numStates]
	inf := math.Inf(1)
	for i := range sc.dist {
		sc.dist[i] = inf
		sc.prev[i] = predLink{state: -1}
	}
}

// ensureHopLadders sizes the hop-limited DP rows: cur/next over
// numStates and maxHops+1 predecessor rows. Rows are (re-)initialised by
// the DP itself, hop by hop.
func (sc *Scratch) ensureHopLadders(numStates, maxHops int) {
	if cap(sc.cur) < numStates {
		sc.cur = make([]float64, numStates)
		sc.next = make([]float64, numStates)
	}
	sc.cur = sc.cur[:numStates]
	sc.next = sc.next[:numStates]
	total := (maxHops + 1) * numStates
	if cap(sc.preds) < total {
		sc.preds = make([]hopPred, total)
	}
	sc.preds = sc.preds[:total]
}

// buildPath materialises a path from reversal buffers filled back to
// front: only the two returned slices are allocated.
func (sc *Scratch) buildPath(cost float64) Path {
	nodes := make([]int, len(sc.nodesRev))
	for i := range sc.nodesRev {
		nodes[i] = sc.nodesRev[len(sc.nodesRev)-1-i]
	}
	edges := make([]Edge, len(sc.edgesRev))
	for i := range sc.edgesRev {
		edges[i] = sc.edgesRev[len(sc.edgesRev)-1-i]
	}
	return Path{Nodes: nodes, Edges: edges, Cost: cost}
}
