package scenario

// RunDenseHighwayFullScan runs cfg with the channel's spatial index off,
// so a test can compare it against the culled run of the same config.
func RunDenseHighwayFullScan(cfg DenseHighwayConfig) (*DenseHighwayResult, error) {
	fullScan = true
	defer func() { fullScan = false }()
	return RunDenseHighway(cfg)
}
