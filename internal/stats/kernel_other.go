//go:build !amd64

package stats

// tableAddAVX exists only so that addLanes compiles everywhere;
// mat.UseAVX is always false off amd64, so it is never called.
func tableAddAVX(st *laneState, vals []float64, bins []uint32, idx, touched []uint16, counts []uint32, w float64) {
	panic("stats: no AVX table kernel on this architecture")
}
