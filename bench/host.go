package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostRecord says where a run's numbers were taken. It is printed with
// every output: timings from different hosts are not comparable.
type hostRecord struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
	StoreFS    string `json:"store_fs"` // filesystem holding the store roots
}

func currentHost(storeDir string) hostRecord {
	h := hostRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Kernel:     "unknown",
		StoreFS:    "unknown",
	}
	if buf, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(buf))
	}
	if abs, err := filepath.Abs(storeDir); err == nil {
		if fs := filesystemOf(abs); fs != "" {
			h.StoreFS = fs
		}
	}
	return h
}

// filesystemOf names the filesystem type of the longest mount point that
// prefixes path, from /proc/mounts ("" where that cannot be read).
func filesystemOf(path string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return ""
	}
	defer f.Close()
	best, fs := "", ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) >= len(best) {
			best, fs = mnt, fields[2]
		}
	}
	return fs
}
