package heap

// ZeroBlockDirtyAt returns the index of the first non-zero byte of the
// shared zero source, or -1 if it is still all zero.
func ZeroBlockDirtyAt() int {
	for i, b := range zeroBlock {
		if b != 0 {
			return i
		}
	}
	return -1
}
