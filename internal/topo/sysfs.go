package topo

import (
	"io/fs"
	"path"
	"strconv"
	"strings"

	"knemesis/internal/units"
)

// ReadL2 reports CPU 0's level-2 data (or unified) cache from a Linux sysfs
// tree rooted at /sys/devices/system/cpu: its size and the number of CPUs
// sharing it. It reads cpu0/cache/index*/{level,type,size,shared_cpu_list};
// ok is false when the tree has no such cache or describes it in a form it
// cannot parse.
func ReadL2(fsys fs.FS) (sizeBytes int64, sharers int, ok bool) {
	dirs, err := fs.Glob(fsys, "cpu0/cache/index*")
	if err != nil {
		return 0, 0, false
	}
	for _, dir := range dirs {
		attr := func(name string) string {
			b, err := fs.ReadFile(fsys, path.Join(dir, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		if attr("level") != "2" || attr("type") == "Instruction" {
			continue
		}
		size, err := units.ParseSize(attr("size"))
		if err != nil || size <= 0 {
			return 0, 0, false
		}
		n, ok := countCPUList(attr("shared_cpu_list"))
		if !ok {
			return 0, 0, false
		}
		return size, n, true
	}
	return 0, 0, false
}

// countCPUList counts the CPUs in a sysfs cpulist such as "0", "0-1" or
// "0,2-3".
func countCPUList(s string) (int, bool) {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil || a < 0 {
			return 0, false
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return 0, false
			}
		}
		n += b - a + 1
	}
	return n, true
}
