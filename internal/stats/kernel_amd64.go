package stats

// tableAddAVX is one pass of a table add in AVX assembly
// (kernel_amd64.s), over the eight lanes of st. For every i of idx, in
// order, lane l adds w to its total, w*vals[i*8+l] to its sumX and
// (w*x)*x to its sumXX, each rounded on its own, and folds the value into
// its extrema. Then, for every i of touched, lane l adds w counts[i]
// times to its bin weight at st.wts[l][bins[i*8+l]]. Every i of idx and
// touched is below len(vals)/8, every touched count is at least 1, and
// the lanes' weight arrays are distinct or pad; addLanes sees to it.
//
//go:noescape
func tableAddAVX(st *laneState, vals []float64, bins []uint32, idx, touched []uint16, counts []uint32, w float64)
