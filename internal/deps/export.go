package deps

import (
	"fmt"

	"repro/internal/isl"
	"repro/internal/scop"
)

// Relation export/import for serialized detection results
// (internal/cache/disk). A Graph is pure derived data — every relation
// is computable from the SCoP — but recomputing it costs the dependence
// analysis the disk tier exists to skip, so a decoder rebuilds the
// graph from its stored relations instead.

// Relations returns the graph's relations in export form: flow[i][j]
// is the flow-dependence relation from statement i to statement j (nil
// when independent), intra[i] the intra-statement conflict relation of
// statement i. The returned slices alias the graph's own maps; treat
// them as read-only (frozen graphs already are).
func (g *Graph) Relations() (flow [][]*isl.Map, intra []*isl.Map) {
	return g.flow, g.intra
}

// RebuildGraph reassembles a Graph over sc from exported relations.
// The slices must be shaped like Relations' result for a SCoP with the
// same statement count; the maps are adopted, not copied.
func RebuildGraph(sc *scop.SCoP, flow [][]*isl.Map, intra []*isl.Map) (*Graph, error) {
	n := len(sc.Stmts)
	if len(flow) != n || len(intra) != n {
		return nil, fmt.Errorf("deps: rebuild: %d statements but %d flow rows / %d intra entries",
			n, len(flow), len(intra))
	}
	for i, row := range flow {
		if len(row) != n {
			return nil, fmt.Errorf("deps: rebuild: flow row %d has %d entries, want %d", i, len(row), n)
		}
	}
	return newGraph(sc, flow, intra), nil
}
