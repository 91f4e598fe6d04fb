package shard

// Count returns the number of batches of size batch needed for n
// items. It is 0 when n <= 0 and batch is clamped to at least 1.
func Count(n, batch int) int {
	if n <= 0 {
		return 0
	}
	if batch < 1 {
		batch = 1
	}
	return (n + batch - 1) / batch
}

// Chunk returns a batch size that divides n items into roughly
// workers*4 batches (at least min items each), a reasonable default
// when per-item cost is uneven and no natural batch size exists.
func Chunk(n, workers, min int) int {
	if workers < 1 {
		workers = 1
	}
	c := n / (workers * 4)
	if c < min {
		c = min
	}
	if c < 1 {
		c = 1
	}
	return c
}
