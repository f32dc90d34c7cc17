package nas

// Fixtures of the package's own tests.

// ISKeyVolumeCheck reports the average Alltoallv payload per rank pair per
// iteration (~2 MiB at class B on 8 ranks).
func ISKeyVolumeCheck(n int) int64 {
	return int64(isTotalKeys) * 4 / int64(n) / int64(n)
}
