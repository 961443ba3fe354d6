// Package ppvindex is a maporder fixture: its import path ends in
// internal/ppvindex, the package that fixes the byte order of stored records.
package ppvindex

import "sort"

// EncodeUnsorted writes node ids in map order with no hatch — two runs would
// store different bytes for the same PPV: flagged.
func EncodeUnsorted(ppv map[uint32]float64) (out []uint32) {
	for id := range ppv { // want "range over map"
		out = append(out, id)
	}
	return out
}

// EncodeSorted is the boundary encoder's shape, collect then sort: clean.
func EncodeSorted(ppv map[uint32]float64) (out []uint32) {
	//lint:ordered collect-then-sort: ids are sorted on the next line
	for id := range ppv {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
