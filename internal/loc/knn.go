package loc

import (
	"fmt"

	"iupdater/internal/mat"
)

// NearestColumn is the simplest fingerprint matcher: the column with the
// smallest Euclidean distance to the measurement wins (lowest index on
// ties). It is also what K-nearest-neighbor matching reduces to here:
// every fingerprint column is a distinct grid cell, so the classic
// inverse-distance vote always elects the nearest column. Queries go
// through the column index, so candidate columns are pruned by the
// precomputed norm and shard bounds without changing the result.
type NearestColumn struct {
	ix *Index
}

var _ Localizer = (*NearestColumn)(nil)

// NewNearestColumn builds a nearest-column matcher over x with default
// (pruned, exact-result) search.
func NewNearestColumn(x *mat.Dense) *NearestColumn {
	return &NearestColumn{ix: NewIndex(x, 0, IndexConfig{})}
}

// Locate implements Localizer.
func (nc *NearestColumn) Locate(y []float64) (int, error) {
	if m, _ := nc.ix.Dims(); len(y) != m {
		return 0, fmt.Errorf("loc: measurement has %d links, fingerprints have %d", len(y), m)
	}
	j, _ := nc.ix.NearestRaw(y)
	return j, nil
}
