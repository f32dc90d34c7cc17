package hw

import (
	"reflect"

	"knemesis/internal/cache"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// hasWayArrays reports whether c has made its way arrays, which it does on
// its first fill. package cache has no accessor for them (nothing outside
// the tests needs one), so the unexported field is read by reflection.
func hasWayArrays(c *cache.Cache) bool {
	return reflect.ValueOf(c).Elem().FieldByName("tags").Len() > 0
}

// L2OfCore returns the L2 cache used by core id.
func (m *Machine) L2OfCore(id topo.CoreID) *cache.Cache { return m.L2s[m.coreL2[id]] }

// FlushCaches releases every cache and the directory and starts empty new
// ones, which fill from what the old ones released.
func (m *Machine) FlushCaches() {
	t := m.Topo
	m.Release()
	for d, c := range m.L2s {
		m.L2s[d] = cache.New(c.Name(), t.L2SizeBytes, t.Params.BlockBytes, t.L2Assoc)
	}
	m.dir = cache.NewDirectory(len(m.L2s))
}

// TouchRange walks [addr, addr+n) through core coreID's cache as reads or
// writes without moving payload (application compute touching its working
// set, or a copy side that has no modelled partner). Time accounting mirrors
// CopyRange's miss-stall model.
func (m *Machine) TouchRange(p *sim.Proc, coreID topo.CoreID, addr uint64, n int64, write bool, noTime bool) Traffic {
	if n <= 0 {
		return Traffic{}
	}
	par := m.Params()
	busBytes, missBytes, dirtyMiss := m.classifyRange(coreID, addr, n, write)
	tr := Traffic{Bytes: n, BusBytes: busBytes, DirtyMissBytes: dirtyMiss}
	if write {
		tr.DstMissBytes = missBytes
	} else {
		tr.SrcMissBytes = missBytes
	}
	stall := float64(missBytes) + float64(dirtyMiss)*(par.RemoteDirtyStallFactor-1)
	tr.CPUSeconds = float64(n)/par.CPUCopyCachedBps + stall*missStallPerByte(par)
	if !noTime {
		m.charge(p, coreID, tr.BusBytes, tr.CPUSeconds)
	}
	return tr
}
